//! The per-schema data registry: loaded database instances behind
//! `PUT /v1/data/:schema`.
//!
//! Each entry is generation-stamped twice: `data_generation` counts loads
//! for the same schema name (so a reload is observable), and
//! `schema_generation` pins the schema generation the data was loaded
//! *against*. A schema hot-swap bumps the registry generation, so
//! `POST /v1/query` can detect — and refuse with a `409` — data that has
//! gone stale relative to the live schema instead of evaluating against a
//! mismatched class universe.

use crate::sync::{read_recover, write_recover};
use ipe_oodb::Database;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One loaded database instance.
pub struct DataEntry {
    /// Registry name of the schema the data belongs to.
    pub schema_name: String,
    /// The schema's stable registry id at load time.
    pub schema_id: u64,
    /// The schema generation the data was loaded against.
    pub schema_generation: u64,
    /// Load counter for this name (1 for the first load).
    pub data_generation: u64,
    /// How the instance was produced: `"spec"` (explicit bulk JSON) or
    /// `"gen"` (synthetic generation).
    pub source: &'static str,
    /// The loaded instance. The database holds its own `Arc<Schema>`, so
    /// the entry stays valid even after the schema registry moves on.
    pub db: Arc<Database>,
}

/// Thread-safe map from schema name to its loaded data.
#[derive(Default)]
pub struct DataRegistry {
    inner: RwLock<HashMap<String, Arc<DataEntry>>>,
}

impl DataRegistry {
    /// An empty registry.
    pub fn new() -> DataRegistry {
        DataRegistry::default()
    }

    /// Installs a loaded database for `schema_name`, replacing any
    /// previous instance and bumping the per-name data generation.
    pub fn insert(
        &self,
        schema_name: &str,
        schema_id: u64,
        schema_generation: u64,
        source: &'static str,
        db: Database,
    ) -> Arc<DataEntry> {
        let mut map = write_recover(&self.inner);
        let data_generation = map
            .get(schema_name)
            .map(|prev| prev.data_generation + 1)
            .unwrap_or(1);
        let entry = Arc::new(DataEntry {
            schema_name: schema_name.to_owned(),
            schema_id,
            schema_generation,
            data_generation,
            source,
            db: Arc::new(db),
        });
        map.insert(schema_name.to_owned(), Arc::clone(&entry));
        ipe_obs::counter!("service.data.loads", 1);
        entry
    }

    /// The loaded data for `schema_name`, if any.
    pub fn get(&self, schema_name: &str) -> Option<Arc<DataEntry>> {
        read_recover(&self.inner).get(schema_name).cloned()
    }

    /// Drops the loaded data for `schema_name`, returning the removed
    /// entry.
    pub fn remove(&self, schema_name: &str) -> Option<Arc<DataEntry>> {
        write_recover(&self.inner).remove(schema_name)
    }

    /// Number of loaded instances.
    pub fn len(&self) -> usize {
        read_recover(&self.inner).len()
    }

    /// Whether no data is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn db() -> Database {
        Database::new(StdArc::new(ipe_schema::fixtures::university()))
    }

    #[test]
    fn insert_bumps_data_generation_per_name() {
        let reg = DataRegistry::new();
        let a = reg.insert("default", 1, 1, "spec", db());
        assert_eq!(a.data_generation, 1);
        let b = reg.insert("default", 1, 2, "gen", db());
        assert_eq!(b.data_generation, 2);
        assert_eq!(b.schema_generation, 2);
        let c = reg.insert("other", 2, 1, "spec", db());
        assert_eq!(c.data_generation, 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn get_and_remove_round_trip() {
        let reg = DataRegistry::new();
        assert!(reg.get("default").is_none());
        reg.insert("default", 1, 1, "spec", db());
        assert!(reg.get("default").is_some());
        let removed = reg.remove("default").unwrap();
        assert_eq!(removed.schema_name, "default");
        assert!(reg.is_empty());
    }
}
