//! The schema registry: multiple named, versioned schemas behind `Arc`
//! with atomic hot-swap on reload.
//!
//! Readers take an `Arc<SchemaEntry>` snapshot and never block writers:
//! a reload builds a fresh entry (same stable `id`, next `generation`) and
//! swaps the map slot under a short write lock. Requests already running
//! against the old `Arc` finish on the schema version they started with.
//!
//! Every entry is published with its search index already built, so no
//! request ever sees an entry whose index is still to come. The index is
//! built before the write lock is taken, under the [`IndexMode`] the
//! registry was made with.

use crate::sync::{read_recover, write_recover, Counter};
use ipe_index::{IndexMode, IndexedSchema, SearchIndex};
use ipe_schema::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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
    /// The search index of exactly this schema, built before the entry
    /// was published: the out-edge offsets under [`IndexMode::Lazy`]
    /// (goal tables follow on first use), every goal table under
    /// [`IndexMode::On`], and `None` under [`IndexMode::Off`].
    pub index: Option<SearchIndex>,
}

impl SchemaEntry {
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
pub struct SchemaRegistry {
    inner: RwLock<HashMap<String, Arc<SchemaEntry>>>,
    next_id: AtomicU64,
    /// What each new entry's index holds (see [`SchemaEntry::index`]).
    index_mode: IndexMode,
    /// Indexes built, one per entry made under `On` or `Lazy`.
    index_builds: Counter,
}

impl Default for SchemaRegistry {
    fn default() -> Self {
        SchemaRegistry::new()
    }
}

impl SchemaRegistry {
    /// An empty registry whose entries carry no index.
    pub fn new() -> Self {
        SchemaRegistry::with_index_mode(IndexMode::Off)
    }

    /// An empty registry that builds each entry's index under `mode`.
    pub fn with_index_mode(index_mode: IndexMode) -> Self {
        SchemaRegistry {
            inner: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            index_mode,
            index_builds: Counter::default(),
        }
    }

    /// The index policy this registry was made with.
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// How many indexes this registry has built.
    pub fn index_builds(&self) -> u64 {
        self.index_builds.get()
    }

    /// Builds `schema`'s index under the registry's mode.
    fn index(&self, schema: &Schema) -> Option<SearchIndex> {
        (self.index_mode != IndexMode::Off).then(|| {
            let _t = ipe_obs::timer!("service.index.build");
            let index = Arc::new(IndexedSchema::build(schema, self.index_mode));
            self.index_builds.incr();
            index
        })
    }

    /// Registers `schema` under `name`. A new name gets a fresh id and
    /// generation 1; an existing name keeps its id and bumps the
    /// generation (the hot-swap path). Returns the new entry.
    pub fn insert(&self, name: &str, schema: Schema) -> Arc<SchemaEntry> {
        let index = self.index(&schema);
        let mut map = write_recover(&self.inner);
        let (id, generation) = match map.get(name) {
            Some(old) => (old.id, old.generation + 1),
            None => (self.next_id.fetch_add(1, Ordering::Relaxed) + 1, 1),
        };
        let entry = entry(name, id, generation, schema, index);
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
        let index = self.index(&schema);
        let entry = entry(name, id, generation, schema, index);
        self.next_id.fetch_max(id, Ordering::Relaxed);
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

fn entry(
    name: &str,
    id: u64,
    generation: u64,
    schema: Schema,
    index: Option<SearchIndex>,
) -> Arc<SchemaEntry> {
    Arc::new(SchemaEntry {
        name: name.to_owned(),
        id,
        generation,
        schema: Arc::new(schema),
        index,
    })
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
    fn every_entry_is_published_with_its_modes_index() {
        let uni = fixtures::university();
        let names: std::collections::HashSet<_> = uni.rels().map(|r| uni.rel(r).name).collect();
        let plain = SchemaRegistry::new();
        assert_eq!(plain.index_mode(), IndexMode::Off);
        assert!(plain.insert("uni", uni.clone()).index.is_none());
        assert_eq!(plain.index_builds(), 0);

        let lazy = SchemaRegistry::with_index_mode(IndexMode::Lazy);
        let first = lazy.insert("uni", uni.clone());
        let index = first
            .index
            .as_ref()
            .expect("a lazy entry carries its index");
        assert!(index.matches(&first.schema));
        assert_eq!(index.goal_count(), 0, "lazy: offsets only");
        // A hot-swap and a restore each publish their own index.
        let swapped = lazy.insert("uni", uni.clone());
        let restored = lazy.restore("other", 9, 3, fixtures::assembly());
        assert!(!Arc::ptr_eq(index, swapped.index.as_ref().unwrap()));
        assert!(restored.index.as_ref().unwrap().matches(&restored.schema));
        assert_eq!(lazy.index_builds(), 3);

        let eager = SchemaRegistry::with_index_mode(IndexMode::On);
        let entry = eager.insert("uni", uni);
        assert_eq!(entry.index.as_ref().unwrap().goal_count(), names.len());
        assert_eq!(eager.index_builds(), 1);
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
