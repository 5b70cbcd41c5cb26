//! Precomputed schema closure index.
//!
//! The paper frames disambiguation as "an optimal path computation (in the
//! transitive closure sense)" and notes that closure results can be
//! precomputed per schema. This crate does that, per schema generation:
//! per target relationship name, a [`GoalTable`] holds which classes can
//! reach the name at all, admissible lower bounds on the rank and semantic
//! length of any completion suffix, and a best-bound-first out-edge order.
//!
//! All tables are *admissible*: computed over unrestricted walks (a
//! superset of the simple paths the engine enumerates) via traversal-based
//! closure, so they never exceed the true optimum Algorithm 2 finds — the
//! Moose algebra's non-distributivity makes direct (Floyd-style) closure
//! unsound for this purpose (see `ipe_algebra::closure`). The engine uses
//! them to reject unreachable `~` segments outright, to cut subtrees whose
//! most optimistic completion is already AGG*-dominated, and to expand
//! promising successors first. See DESIGN.md §12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod goal;
mod tables;

pub use goal::GoalTable;

use goal::{out_offsets, OutOffsets};
use ipe_schema::{Schema, Symbol};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// How a service or CLI uses the index. The service's default is
/// `ServiceConfig`'s to set; one-shot CLI runs default to `Off`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexMode {
    /// Build a goal table per relationship name eagerly.
    On,
    /// Build goal tables on first use per name.
    Lazy,
    /// No index: pure Algorithm-2 search.
    Off,
}

impl IndexMode {
    /// Parses `on` / `lazy` / `off`.
    pub fn parse(s: &str) -> Option<IndexMode> {
        match s {
            "on" => Some(IndexMode::On),
            "lazy" => Some(IndexMode::Lazy),
            "off" => Some(IndexMode::Off),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`parse`](IndexMode::parse).
    pub fn as_str(self) -> &'static str {
        match self {
            IndexMode::On => "on",
            IndexMode::Lazy => "lazy",
            IndexMode::Off => "off",
        }
    }
}

/// Shared handle to a built index, as attached to completion engines.
pub type SearchIndex = Arc<IndexedSchema>;

/// The precomputed closure index of one schema generation.
///
/// Immutable once built except for the lazily grown goal-table cache,
/// which is internally synchronized — the whole structure is shared across
/// request threads behind an [`Arc`] (see [`SearchIndex`]).
pub struct IndexedSchema {
    class_count: usize,
    rel_count: usize,
    /// The out-edge offsets every goal table of this schema shares.
    offsets: OutOffsets,
    /// Lazily grown per-name goal tables.
    goals: RwLock<HashMap<Symbol, Arc<GoalTable>>>,
}

impl std::fmt::Debug for IndexedSchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedSchema")
            .field("class_count", &self.class_count)
            .field("rel_count", &self.rel_count)
            .field("goal_count", &self.goal_count())
            .finish_non_exhaustive()
    }
}

impl IndexedSchema {
    /// Builds the index for `schema`. With [`IndexMode::On`] every
    /// relationship name gets its goal table eagerly; with
    /// [`IndexMode::Lazy`] goal tables are built on first use.
    pub fn build(schema: &Schema, mode: IndexMode) -> IndexedSchema {
        let _t = ipe_obs::timer!("index.build");
        ipe_obs::counter!("index.builds", 1);
        let offsets = out_offsets(schema);
        let mut goals = HashMap::new();
        if mode == IndexMode::On {
            let mut names: Vec<Symbol> = schema.rels().map(|r| schema.rel(r).name).collect();
            names.sort();
            names.dedup();
            goals.reserve(names.len());
            for name in names {
                let table = GoalTable::build_with(schema, name, offsets.clone());
                goals.insert(name, Arc::new(table));
            }
        }
        IndexedSchema {
            class_count: schema.class_count(),
            rel_count: schema.rel_count(),
            offsets,
            goals: RwLock::new(goals),
        }
    }

    /// Whether this index was built from a schema shaped like `schema`.
    /// Cheap structural check used before attaching to an engine.
    pub fn matches(&self, schema: &Schema) -> bool {
        self.class_count == schema.class_count() && self.rel_count == schema.rel_count()
    }

    /// Class count of the indexed schema.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Relationship count of the indexed schema.
    pub fn rel_count(&self) -> usize {
        self.rel_count
    }

    /// The goal table for target name `name`, building and caching it on
    /// demand. `None` when no relationship carries that name.
    pub fn goal(&self, schema: &Schema, name: Symbol) -> Option<Arc<GoalTable>> {
        if let Some(t) = self.goals.read().expect("index poisoned").get(&name) {
            return Some(t.clone());
        }
        if schema.rels_named(name).is_empty() {
            return None;
        }
        let built = Arc::new(GoalTable::build_with(schema, name, self.offsets.clone()));
        let mut goals = self.goals.write().expect("index poisoned");
        Some(goals.entry(name).or_insert(built).clone())
    }

    /// The goal table for `name` if it is already built (never builds).
    pub fn goal_if_built(&self, name: Symbol) -> Option<Arc<GoalTable>> {
        self.goals
            .read()
            .expect("index poisoned")
            .get(&name)
            .cloned()
    }

    /// Number of goal tables currently built.
    pub fn goal_count(&self) -> usize {
        self.goals.read().expect("index poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_schema::fixtures;

    #[test]
    fn parse_round_trips_modes() {
        for m in [IndexMode::On, IndexMode::Lazy, IndexMode::Off] {
            assert_eq!(IndexMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(IndexMode::parse("never"), None);
    }

    #[test]
    fn eager_build_indexes_every_relationship_name() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::On);
        let distinct: std::collections::HashSet<Symbol> =
            schema.rels().map(|r| schema.rel(r).name).collect();
        assert_eq!(index.goal_count(), distinct.len());
        assert!(index.matches(&schema));
    }

    #[test]
    fn lazy_build_defers_goal_tables() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::Lazy);
        assert_eq!(index.goal_count(), 0);
        let name = schema.symbol("name").unwrap();
        let g1 = index.goal(&schema, name).unwrap();
        assert_eq!(index.goal_count(), 1);
        let g2 = index.goal(&schema, name).unwrap();
        assert!(Arc::ptr_eq(&g1, &g2), "second lookup hits the cache");
    }
}
