//! The schema registry: multiple named, versioned schemas behind `Arc`
//! with atomic hot-swap on reload.
//!
//! Readers take an `Arc<SchemaEntry>` snapshot and never block writers:
//! a reload builds a fresh entry (same stable `id`, next `generation`) and
//! swaps the map slot under a short write lock. Requests already running
//! against the old `Arc` finish on the schema version they started with.

use crate::sync::{read_recover, write_recover};
use ipe_index::SearchIndex;
use ipe_schema::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One registered schema version.
#[derive(Debug)]
pub struct SchemaEntry {
    /// Registry name, unique among live schemas.
    pub name: String,
    /// Stable numeric id: survives hot-swaps, distinguishes re-created
    /// schemas of the same name from their predecessors in cache keys.
    pub id: u64,
    /// Version counter, starting at 1 and bumped by every hot-swap.
    pub generation: u64,
    /// The immutable schema itself.
    pub schema: Arc<Schema>,
    /// The search index for exactly this `(id, generation)`, installed by
    /// a background build (or a sidecar load) after the entry is already
    /// serving. Empty while the build runs — readers fall back to
    /// unindexed search, so a PUT never blocks on indexing.
    index: OnceLock<SearchIndex>,
}

impl SchemaEntry {
    fn new(name: &str, id: u64, generation: u64, schema: Schema) -> SchemaEntry {
        SchemaEntry {
            name: name.to_owned(),
            id,
            generation,
            schema: Arc::new(schema),
            index: OnceLock::new(),
        }
    }

    /// The entry's search index, once a build (or sidecar load) finished.
    pub fn index(&self) -> Option<SearchIndex> {
        self.index.get().cloned()
    }

    /// Installs a built index. First writer wins (a sidecar load and a
    /// concurrent background build may race benignly); returns whether
    /// this call installed it. Indexes that don't structurally match the
    /// schema are refused — a stale sidecar must degrade to a rebuild,
    /// never serve wrong bounds.
    pub fn set_index(&self, index: SearchIndex) -> bool {
        if !index.matches(&self.schema) {
            ipe_obs::counter!("service.index.mismatch_refused", 1);
            return false;
        }
        self.index.set(index).is_ok()
    }

    /// The entry's summary row, under its registry name.
    pub(crate) fn info(&self) -> SchemaInfo {
        SchemaInfo {
            name: self.name.clone(),
            id: self.id,
            generation: self.generation,
            classes: self.schema.class_count() as u64,
            relationships: self.schema.rel_count() as u64,
        }
    }
}

/// Summary row for `GET /v1/schemas`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SchemaInfo {
    /// Registry name.
    pub name: String,
    /// Stable id.
    pub id: u64,
    /// Current generation.
    pub generation: u64,
    /// Class count (including primitives).
    pub classes: u64,
    /// Relationship count.
    pub relationships: u64,
}

/// A concurrent map of named, versioned schemas.
#[derive(Default)]
pub struct SchemaRegistry {
    inner: RwLock<HashMap<String, Arc<SchemaEntry>>>,
    next_id: AtomicU64,
}

impl SchemaRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Registers `schema` under `name`. A new name gets a fresh id and
    /// generation 1; an existing name keeps its id and bumps the
    /// generation (the hot-swap path). Returns the new entry.
    pub fn insert(&self, name: &str, schema: Schema) -> Arc<SchemaEntry> {
        let mut map = write_recover(&self.inner);
        let (id, generation) = match map.get(name) {
            Some(old) => (old.id, old.generation + 1),
            None => (self.next_id.fetch_add(1, Ordering::Relaxed) + 1, 1),
        };
        let entry = Arc::new(SchemaEntry::new(name, id, generation, schema));
        map.insert(name.to_owned(), entry.clone());
        entry
    }

    /// Reinstates a recovered schema exactly as it was acknowledged: `id`
    /// and `generation` come from the durable record rather than the
    /// counters, and the id counter is advanced so later inserts never
    /// collide. Subsequent [`insert`](SchemaRegistry::insert)s on `name`
    /// continue the generation sequence monotonically.
    pub fn restore(
        &self,
        name: &str,
        id: u64,
        generation: u64,
        schema: Schema,
    ) -> Arc<SchemaEntry> {
        self.next_id.fetch_max(id, Ordering::Relaxed);
        let entry = Arc::new(SchemaEntry::new(name, id, generation, schema));
        write_recover(&self.inner).insert(name.to_owned(), entry.clone());
        entry
    }

    /// Advances the id counter past `max_id`, so ids of schemas that were
    /// deleted before a crash are never reissued (their old cache keys
    /// must not alias new entries).
    pub fn reserve_ids(&self, max_id: u64) {
        self.next_id.fetch_max(max_id, Ordering::Relaxed);
    }

    /// The current entry for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<SchemaEntry>> {
        read_recover(&self.inner).get(name).cloned()
    }

    /// Unregisters `name`, returning its final entry. In-flight requests
    /// holding the `Arc` are unaffected.
    pub fn remove(&self, name: &str) -> Option<Arc<SchemaEntry>> {
        write_recover(&self.inner).remove(name)
    }

    /// Summaries of every registered schema, sorted by name.
    pub fn list(&self) -> Vec<SchemaInfo> {
        let map = read_recover(&self.inner);
        let mut out: Vec<SchemaInfo> = map.values().map(|e| e.info()).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_schema::fixtures;

    #[test]
    fn hot_swap_keeps_id_and_bumps_generation() {
        let reg = SchemaRegistry::new();
        let first = reg.insert("uni", fixtures::university());
        assert_eq!((first.id, first.generation), (1, 1));
        let second = reg.insert("uni", fixtures::university());
        assert_eq!(second.id, first.id, "id is stable across reloads");
        assert_eq!(second.generation, 2);
        // The old Arc is still fully usable by in-flight requests.
        assert!(first.schema.class_count() > 0);
        assert_eq!(reg.get("uni").unwrap().generation, 2);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let reg = SchemaRegistry::new();
        let a = reg.insert("a", fixtures::university());
        let b = reg.insert("b", fixtures::assembly());
        assert_ne!(a.id, b.id);
        let names: Vec<String> = reg.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn restore_reinstates_ids_and_generations_exactly() {
        let reg = SchemaRegistry::new();
        reg.restore("uni", 5, 7, fixtures::university());
        let got = reg.get("uni").unwrap();
        assert_eq!((got.id, got.generation), (5, 7));
        // A hot-swap continues the recovered generation sequence.
        let swapped = reg.insert("uni", fixtures::university());
        assert_eq!((swapped.id, swapped.generation), (5, 8));
        // Fresh names get ids past every restored one.
        let fresh = reg.insert("other", fixtures::assembly());
        assert!(
            fresh.id > 5,
            "fresh id {} must not reuse restored ids",
            fresh.id
        );
    }

    #[test]
    fn reserve_ids_blocks_reuse_of_deleted_ids() {
        let reg = SchemaRegistry::new();
        reg.reserve_ids(9);
        let fresh = reg.insert("x", fixtures::university());
        assert_eq!(fresh.id, 10);
    }

    #[test]
    fn index_install_is_first_writer_wins_and_checks_fit() {
        use ipe_index::{IndexMode, IndexedSchema};
        let reg = SchemaRegistry::new();
        let entry = reg.insert("uni", fixtures::university());
        assert!(entry.index().is_none(), "no index before a build finishes");
        // A structurally different schema's index is refused.
        let wrong = Arc::new(IndexedSchema::build(&fixtures::assembly(), IndexMode::Off));
        assert!(!entry.set_index(wrong));
        assert!(entry.index().is_none());
        let right = Arc::new(IndexedSchema::build(&entry.schema, IndexMode::Off));
        assert!(entry.set_index(Arc::clone(&right)));
        assert!(entry.index().is_some());
        // Second install (e.g. a racing sidecar load) is a no-op.
        let again = Arc::new(IndexedSchema::build(&entry.schema, IndexMode::Off));
        assert!(!entry.set_index(again));
        // A hot-swap starts over with an un-indexed entry.
        let swapped = reg.insert("uni", fixtures::university());
        assert!(swapped.index().is_none());
    }

    #[test]
    fn remove_unregisters() {
        let reg = SchemaRegistry::new();
        reg.insert("x", fixtures::university());
        assert!(reg.remove("x").is_some());
        assert!(reg.get("x").is_none());
        assert!(reg.remove("x").is_none());
    }
}
