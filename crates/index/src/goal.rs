//! Per-name goal tables: for a fixed target relationship name `N`, every
//! class gets (a) the set of connectors achievable by walks from it that
//! end with an `N`-edge, (b) the minimum achievable semantic length of such
//! a walk per reduced first-edge kind, (c) its out-relationships ordered
//! best-bound-first, and (d) its out-edge named `N`, if it has one.
//!
//! ## Admissibility
//!
//! Both tables are closures over *unrestricted walks*, a superset of the
//! simple paths Algorithm 2 enumerates, so they can only be more optimistic
//! than any real completion: the connector of every completion suffix is in
//! the mask, and its semantic length is at least the stored minimum. The
//! tables are built by traversal (a label-correct fixpoint and a 0-1 BFS
//! over `(class, first-kind)` states), never by a direct Floyd-style
//! recurrence — the Moose algebra is not distributive, and a direct closure
//! may drop exactly the optimum a bound must not exceed (see
//! `ipe_algebra::closure`).
//!
//! The semantic-length search is a 0-1 BFS because every backward step adds
//! `semlen(g) + junction_adjust(g, f)`, which is 0 or 1: semantic lengths
//! are 0 or 1, the `-1` junction only follows a length-1 kind, and the `+1`
//! junction only follows a length-0 kind.

use crate::tables::{conn_index, kind_index, mask_bits, tables, INVALID};
use ipe_algebra::moose::{junction_adjust, rank, Connector, RelKind};
use ipe_graph::EdgeId;
use ipe_schema::{ClassId, RelId, Schema, Symbol};
use std::collections::VecDeque;
use std::sync::Arc;

/// Sentinel distance for "no walk with this first kind".
pub(crate) const UNREACHED: u16 = u16::MAX;

/// Per-class start offsets into a goal table's flat out-edge order, plus
/// one end offset: class `v` owns `offsets[v]..offsets[v + 1]`. They follow
/// from the schema's out-degrees alone, so every table of one schema shares
/// one copy.
pub(crate) type OutOffsets = Arc<[u32]>;

/// The [`OutOffsets`] of `schema`.
pub(crate) fn out_offsets(schema: &Schema) -> OutOffsets {
    let graph = schema.graph();
    let mut at = 0u32;
    std::iter::once(0)
        .chain(schema.classes().map(|class| {
            at += graph.out_edge_ids(class.0).len() as u32;
            at
        }))
        .collect()
}

/// Goal-directed tables for one target relationship name.
#[derive(Debug, PartialEq, Eq)]
pub struct GoalTable {
    name: Symbol,
    /// Per class: connectors (as slot bits) of walks ending in a goal edge.
    /// Zero means no such walk exists — the class cannot complete `~name`.
    conn_mask: Vec<u16>,
    /// Per class and reduced first-edge kind: minimum semantic length of a
    /// walk ending in a goal edge, [`UNREACHED`] when none exists.
    semlen_by_first: Vec<[u16; 5]>,
    /// All out-relationships, grouped by source class in class order, best
    /// completion bound first within each group.
    ordered_out: Vec<RelId>,
    /// Where each class's group starts in `ordered_out`.
    offsets: OutOffsets,
    /// Per class: the index of its out-edge named `name`, or
    /// [`NO_GOAL_EDGE`]. A schema gives a class at most one out-edge of a
    /// name, so one slot holds it.
    goal_edge: Vec<u32>,
}

/// Sentinel of [`GoalTable`]'s `goal_edge` slot: the class has no out-edge
/// named `N`.
const NO_GOAL_EDGE: u32 = u32::MAX;

impl GoalTable {
    /// Builds the table for target name `name` over `schema`.
    pub fn build(schema: &Schema, name: Symbol) -> GoalTable {
        GoalTable::build_with(schema, name, out_offsets(schema))
    }

    /// [`build`](GoalTable::build) with the schema's offsets already known.
    pub(crate) fn build_with(schema: &Schema, name: Symbol, offsets: OutOffsets) -> GoalTable {
        let _t = ipe_obs::timer!("index.goal.build");
        ipe_obs::counter!("index.goal.builds", 1);
        let t = tables();
        let graph = schema.graph();
        let n = schema.class_count();

        // Connector fixpoint, backwards from the goal edges' sources.
        let mut conn_mask = vec![0u16; n];
        let mut queued = vec![false; n];
        let mut worklist: Vec<usize> = Vec::new();
        let mut goal_edge = vec![NO_GOAL_EDGE; n];
        for &rid in schema.rels_named(name) {
            let rel = schema.rel(rid);
            let bit = 1u16 << conn_index(rel.kind.connector());
            let s = rel.source.index();
            goal_edge[s] = rid.0 .0;
            if conn_mask[s] & bit == 0 {
                conn_mask[s] |= bit;
                if !queued[s] {
                    queued[s] = true;
                    worklist.push(s);
                }
            }
        }
        while let Some(u) = worklist.pop() {
            queued[u] = false;
            let mu = conn_mask[u];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u as u32)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = t.kind_conn[kind_index(edge.weight.kind)] as usize;
                let mut gained = 0u16;
                for c in mask_bits(mu) {
                    let nc = t.compose_idx[g][c];
                    debug_assert_ne!(nc, INVALID);
                    gained |= 1 << nc;
                }
                if conn_mask[v] | gained != conn_mask[v] {
                    conn_mask[v] |= gained;
                    if !queued[v] {
                        queued[v] = true;
                        worklist.push(v);
                    }
                }
            }
        }

        // Semantic-length 0-1 BFS over (class, first reduced kind) states:
        // a 0-step goes to the front of the queue, a 1-step to the back, so
        // states leave the queue in distance order, as in a Dijkstra.
        let mut semlen_by_first = vec![[UNREACHED; 5]; n];
        let mut seeds: Vec<(u16, u32, u8)> = schema
            .rels_named(name)
            .iter()
            .map(|&rid| {
                let rel = schema.rel(rid);
                (
                    rel.kind.semantic_length() as u16,
                    rel.source.index() as u32,
                    kind_index(rel.kind) as u8,
                )
            })
            .collect();
        seeds.sort_unstable();
        let mut queue: VecDeque<(u16, u32, u8)> = VecDeque::with_capacity(seeds.len());
        for (d, s, k) in seeds {
            let best = &mut semlen_by_first[s as usize][k as usize];
            if d < *best {
                *best = d;
                queue.push_back((d, s, k));
            }
        }
        while let Some((d, u, f)) = queue.pop_front() {
            if d > semlen_by_first[u as usize][f as usize] {
                continue;
            }
            let first = RelKind::ALL[f as usize];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = edge.weight.kind;
                let step = g.semantic_length() as i64 + junction_adjust(g, first) as i64;
                debug_assert!((0..=1).contains(&step), "a backward step adds 0 or 1");
                let cand = (d as i64 + step).min(UNREACHED as i64 - 1) as u16;
                let gk = kind_index(g);
                if cand < semlen_by_first[v][gk] {
                    semlen_by_first[v][gk] = cand;
                    let state = (cand, v as u32, gk as u8);
                    if step == 0 {
                        queue.push_front(state);
                    } else {
                        queue.push_back(state);
                    }
                }
            }
        }

        // Best-bound-first out-edge order. The key of an edge is the most
        // optimistic (rank, semantic length) of a completion starting with
        // it: either the edge is itself a goal edge, or it continues into
        // its target's tables. Hopeless edges sort last with key MAX. Each
        // key is computed once; the rid makes keys unique, so the order is
        // total.
        let mut ordered_out: Vec<RelId> = Vec::with_capacity(schema.rel_count());
        let mut keyed: Vec<(u32, u8, u32, u32)> = Vec::new();
        for class in schema.classes() {
            keyed.clear();
            keyed.extend(graph.out_edge_ids(class.0).iter().map(|&eid| {
                let edge = graph.edge(eid);
                let kind = edge.weight.kind;
                let mut best = u32::MAX;
                if edge.weight.name == name {
                    best = pack(rank(kind.connector()), kind.semantic_length());
                }
                let ti = edge.target.index();
                let g = t.kind_conn[kind_index(kind)] as usize;
                let best_rank = mask_bits(conn_mask[ti])
                    .map(|c| t.rank_of[t.compose_idx[g][c] as usize])
                    .min();
                let best_semlen = (0..5)
                    .filter(|&f| semlen_by_first[ti][f] != UNREACHED)
                    .map(|f| {
                        kind.semantic_length() as i64
                            + junction_adjust(kind, RelKind::ALL[f]) as i64
                            + semlen_by_first[ti][f] as i64
                    })
                    .min();
                if let (Some(r), Some(s)) = (best_rank, best_semlen) {
                    debug_assert!(s >= 0);
                    best = best.min(pack(r, s as u32));
                }
                (best, rank(kind.connector()), kind.semantic_length(), eid.0)
            }));
            keyed.sort_unstable();
            ordered_out.extend(keyed.iter().map(|&(.., id)| RelId(EdgeId(id))));
        }

        GoalTable {
            name,
            conn_mask,
            semlen_by_first,
            ordered_out,
            offsets,
            goal_edge,
        }
    }

    /// The target relationship name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// Whether any walk from `v` ends in a goal edge. `false` means
    /// `~name` from `v` provably has no completion.
    pub fn reachable(&self, v: ClassId) -> bool {
        self.conn_mask[v.index()] != 0
    }

    /// Raw connector bitmask of class `v` (slot bits; see `tables`).
    pub fn conn_mask(&self, v: ClassId) -> u16 {
        self.conn_mask[v.index()]
    }

    /// Lower bound on the rank of any completion whose remaining suffix
    /// starts at `v`, given the connector of the path so far (`None` for
    /// the empty prefix). `None` when no completion exists through `v`.
    pub fn best_rank_from(&self, prefix: Option<Connector>, v: ClassId) -> Option<u8> {
        let t = tables();
        let mask = self.conn_mask[v.index()];
        let p = prefix.map(conn_index);
        mask_bits(mask)
            .map(|c| match p {
                Some(p) => t.rank_of[t.compose_idx[p][c] as usize],
                None => t.rank_of[c],
            })
            .min()
    }

    /// Lower bound on the semantic length of any completion whose prefix
    /// has semantic length `prefix_semlen` and last reduced kind `last`
    /// (`None` for the empty prefix) and whose suffix starts at `v`.
    /// `None` when no completion exists through `v`.
    pub fn best_semlen_from(
        &self,
        prefix_semlen: u32,
        last: Option<RelKind>,
        v: ClassId,
    ) -> Option<u32> {
        self.semlen_by_first[v.index()]
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHED)
            .map(|(f, &d)| {
                let adjust = match last {
                    Some(g) => junction_adjust(g, RelKind::ALL[f]) as i64,
                    None => 0,
                };
                (prefix_semlen as i64 + d as i64 + adjust).max(0) as u32
            })
            .min()
    }

    /// Out-relationships of `v`, best completion bound first. Contains
    /// exactly the same edges as the schema's out-edge list.
    pub fn ordered_out(&self, v: ClassId) -> &[RelId] {
        let i = v.index();
        &self.ordered_out[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The out-edge of `v` named by the table's target, if `v` has one.
    pub fn goal_edge(&self, v: ClassId) -> Option<RelId> {
        let id = self.goal_edge[v.index()];
        (id != NO_GOAL_EDGE).then_some(RelId(EdgeId(id)))
    }
}

/// Packs a (rank, semantic length) bound into one sortable key.
fn pack(rank: u8, semlen: u32) -> u32 {
    ((rank as u32) << 24) | semlen.min(0x00FF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_gen::{generate_schema, GenConfig};
    use ipe_schema::{fixtures, SchemaDoc};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A goal table as the reference build lays it out.
    type Reference = (Vec<u16>, Vec<[u16; 5]>, Vec<Vec<RelId>>);

    /// The build the flat 0-1 BFS build replaced, kept as its oracle: a
    /// Dijkstra over `(class, first-kind)` states and one out-edge `Vec`
    /// per class, stably sorted with the key recomputed per comparison.
    fn reference_build(schema: &Schema, name: Symbol) -> Reference {
        let t = tables();
        let graph = schema.graph();
        let n = schema.class_count();

        let mut conn_mask = vec![0u16; n];
        let mut queued = vec![false; n];
        let mut worklist: Vec<usize> = Vec::new();
        for &rid in schema.rels_named(name) {
            let rel = schema.rel(rid);
            let bit = 1u16 << conn_index(rel.kind.connector());
            let s = rel.source.index();
            if conn_mask[s] & bit == 0 {
                conn_mask[s] |= bit;
                if !queued[s] {
                    queued[s] = true;
                    worklist.push(s);
                }
            }
        }
        while let Some(u) = worklist.pop() {
            queued[u] = false;
            let mu = conn_mask[u];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u as u32)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = t.kind_conn[kind_index(edge.weight.kind)] as usize;
                let mut gained = 0u16;
                for c in mask_bits(mu) {
                    gained |= 1 << t.compose_idx[g][c];
                }
                if conn_mask[v] | gained != conn_mask[v] {
                    conn_mask[v] |= gained;
                    if !queued[v] {
                        queued[v] = true;
                        worklist.push(v);
                    }
                }
            }
        }

        let mut semlen_by_first = vec![[UNREACHED; 5]; n];
        let mut heap: BinaryHeap<Reverse<(u16, u32, u8)>> = BinaryHeap::new();
        for &rid in schema.rels_named(name) {
            let rel = schema.rel(rid);
            let s = rel.source.index();
            let k = kind_index(rel.kind);
            let d = rel.kind.semantic_length() as u16;
            if d < semlen_by_first[s][k] {
                semlen_by_first[s][k] = d;
                heap.push(Reverse((d, s as u32, k as u8)));
            }
        }
        while let Some(Reverse((d, u, f))) = heap.pop() {
            if d > semlen_by_first[u as usize][f as usize] {
                continue;
            }
            let first = RelKind::ALL[f as usize];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = edge.weight.kind;
                let step = g.semantic_length() as i64 + junction_adjust(g, first) as i64;
                assert!(step >= 0, "per-step semantic length is never negative");
                let cand = (d as i64 + step).min(UNREACHED as i64 - 1) as u16;
                let gk = kind_index(g);
                if cand < semlen_by_first[v][gk] {
                    semlen_by_first[v][gk] = cand;
                    heap.push(Reverse((cand, v as u32, gk as u8)));
                }
            }
        }

        let mut ordered_out: Vec<Vec<RelId>> = Vec::with_capacity(n);
        for class in schema.classes() {
            let mut rels: Vec<RelId> = graph
                .out_edge_ids(class.0)
                .iter()
                .map(|&e| RelId(e))
                .collect();
            rels.sort_by_key(|&rid| {
                let rel = schema.rel(rid);
                let kind = rel.kind;
                let mut best = u32::MAX;
                if rel.name == name {
                    best = pack(rank(kind.connector()), kind.semantic_length());
                }
                let ti = rel.target.index();
                let g = t.kind_conn[kind_index(kind)] as usize;
                let best_rank = mask_bits(conn_mask[ti])
                    .map(|c| t.rank_of[t.compose_idx[g][c] as usize])
                    .min();
                let best_semlen = (0..5)
                    .filter(|&f| semlen_by_first[ti][f] != UNREACHED)
                    .map(|f| {
                        kind.semantic_length() as i64
                            + junction_adjust(kind, RelKind::ALL[f]) as i64
                            + semlen_by_first[ti][f] as i64
                    })
                    .min();
                if let (Some(r), Some(s)) = (best_rank, best_semlen) {
                    best = best.min(pack(r, s as u32));
                }
                (
                    best,
                    rank(kind.connector()),
                    kind.semantic_length(),
                    rid.index(),
                )
            });
            ordered_out.push(rels);
        }
        (conn_mask, semlen_by_first, ordered_out)
    }

    /// The table of `name` laid out as the reference build lays it out.
    fn as_reference(schema: &Schema, table: &GoalTable) -> Reference {
        let ordered_out = schema
            .classes()
            .map(|c| table.ordered_out(c).to_vec())
            .collect();
        (
            table.conn_mask.clone(),
            table.semlen_by_first.clone(),
            ordered_out,
        )
    }

    /// Target names to check on `schema`: every relationship name, plus one
    /// class name no edge carries when the schema has one.
    fn target_names(schema: &Schema) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = schema.rels().map(|r| schema.rel(r).name).collect();
        names.sort();
        names.dedup();
        names.extend(
            schema
                .classes()
                .map(|c| schema.class(c).name)
                .find(|&s| schema.rels_named(s).is_empty()),
        );
        names
    }

    fn assert_matches_reference(schema: &Schema) {
        for name in target_names(schema) {
            let table = GoalTable::build(schema, name);
            assert!(
                as_reference(schema, &table) == reference_build(schema, name),
                "goal table of `{}` differs from the reference build",
                schema.name(name)
            );
        }
    }

    /// A generated schema in one of three shapes: CUPID-sized (92
    /// classes), churn-sized (8 classes) and a 24-class schema in which
    /// every `Isa`-tower class gets a second superclass.
    fn generated(shape: usize, seed: u64) -> Schema {
        let config = match shape {
            0 => GenConfig {
                seed,
                ..GenConfig::default()
            },
            1 => GenConfig {
                classes: 8,
                hub_degree: 6,
                seed,
                ..GenConfig::default()
            },
            _ => GenConfig {
                classes: 24,
                tree_roots: 2,
                assoc_edges: 3,
                hub_degree: 5,
                seed,
                ..GenConfig::default()
            },
        };
        let schema = generate_schema(&config).schema;
        if shape < 2 {
            return schema;
        }
        with_second_superclasses(&schema, seed)
    }

    /// Adds an `Isa` edge from every class that already has a superclass to
    /// a class without one. The new superclass has no `Isa` out-edge, so no
    /// `Isa` cycle can form.
    fn with_second_superclasses(schema: &Schema, seed: u64) -> Schema {
        let roots: Vec<ClassId> = schema
            .classes()
            .filter(|&c| !schema.is_primitive(c) && schema.isa_parents(c).next().is_none())
            .collect();
        let mut doc = SchemaDoc::from_schema(schema);
        for (k, class) in schema.classes().enumerate() {
            let parents: Vec<ClassId> = schema.isa_parents(class).map(|(_, p)| p).collect();
            if parents.is_empty() {
                continue;
            }
            let pick = (seed ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            let sup = roots[pick as usize % roots.len()];
            if parents.contains(&sup) {
                continue;
            }
            let mut isa = doc.rels[0].clone();
            isa.source = schema.class_name(class).to_owned();
            isa.target = schema.class_name(sup).to_owned();
            isa.kind = RelKind::Isa;
            isa.name = format!("mi_sup{k}");
            isa.inverse_name = Some(format!("mi_sub{k}"));
            doc.rels.push(isa);
        }
        let schema = doc.into_schema().expect("a second superclass is valid");
        assert!(
            schema.classes().any(|c| schema.isa_parents(c).count() > 1),
            "the shape has multiple inheritance"
        );
        schema
    }

    #[test]
    fn university_name_goal_table_is_sensible() {
        let schema = fixtures::university();
        let name = schema.symbol("name").unwrap();
        let table = GoalTable::build(&schema, name);
        // `ta` reaches `name` (via Isa chains), primitives never do.
        let ta = schema.class_named("ta").unwrap();
        assert!(table.reachable(ta));
        let primitive = schema
            .classes()
            .find(|&c| schema.is_primitive(c))
            .expect("fixture uses primitives");
        assert!(!table.reachable(primitive), "primitives have no out-edges");
        // The empty-prefix rank bound from `ta` is the strongest: the best
        // completion `ta@>…@>person.name` has connector `.` (rank 2), and
        // no stronger connector can end in an Assoc-kind attribute edge.
        assert_eq!(table.best_rank_from(None, ta), Some(2));
        // Both optimal completions have semantic length 1.
        assert_eq!(table.best_semlen_from(0, None, ta), Some(1));
    }

    #[test]
    fn ordered_out_is_a_permutation_of_the_out_edges() {
        let mut schemas = vec![fixtures::university()];
        schemas.extend((0..3).flat_map(|shape| (0..4).map(move |seed| generated(shape, seed))));
        for schema in &schemas {
            for name in target_names(schema) {
                let table = GoalTable::build(schema, name);
                for class in schema.classes() {
                    let mut a: Vec<RelId> = table.ordered_out(class).to_vec();
                    let mut b: Vec<RelId> = schema.out_rels(class).map(|r| r.id).collect();
                    a.sort();
                    b.sort();
                    assert_eq!(a, b, "class {}", schema.class_name(class));
                }
            }
        }
    }

    /// The goal-edge slot holds exactly the class's out-edge of the name.
    #[test]
    fn goal_edge_is_the_out_edge_of_the_name() {
        let mut schemas = vec![fixtures::university(), fixtures::assembly()];
        schemas.extend((0..3).map(|shape| generated(shape, 7)));
        for schema in &schemas {
            for name in target_names(schema) {
                let table = GoalTable::build(schema, name);
                for class in schema.classes() {
                    assert_eq!(
                        table.goal_edge(class),
                        schema.out_rel_named(class, name).map(|r| r.id),
                        "class {} name {}",
                        schema.class_name(class),
                        schema.name(name)
                    );
                }
            }
        }
    }

    #[test]
    fn fixture_tables_match_the_reference_build() {
        assert_matches_reference(&fixtures::university());
        assert_matches_reference(&fixtures::assembly());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The 0-1 BFS and the flat out-edge order give exactly the tables
        /// of the Dijkstra build with per-class vectors.
        #[test]
        fn build_matches_the_reference_build(shape in 0usize..3, seed in 0u64..1_000_000) {
            assert_matches_reference(&generated(shape, seed));
        }
    }

    #[test]
    fn direct_attribute_edge_sorts_first() {
        let schema = fixtures::university();
        let name = schema.symbol("name").unwrap();
        let table = GoalTable::build(&schema, name);
        // `person` owns a `name` attribute; it must lead the order.
        let person = schema.class_named("person").unwrap();
        let first = table.ordered_out(person)[0];
        assert_eq!(schema.rel_name(first), "name");
    }

    /// Edges that cannot reach the target tie on the bound, so the
    /// connector rank orders them: the later `$>` edge before the earlier
    /// `.` edge, both of semantic length 1.
    #[test]
    fn hopeless_edges_order_by_connector_rank() {
        let mut b = ipe_schema::SchemaBuilder::new();
        let [a, x, y] = ["a", "x", "y"].map(|n| b.class(n).unwrap());
        b.class("unused").unwrap();
        let (assoc, _) = b.assoc(a, x, "link").unwrap();
        let (part, _) = b.has_part(a, y).unwrap();
        let schema = b.build().unwrap();
        let target = schema.symbol("unused").unwrap();
        let table = GoalTable::build(&schema, target);
        assert_eq!(table.ordered_out(a), [part, assoc]);
    }

    #[test]
    fn unknown_targets_yield_empty_tables() {
        let schema = fixtures::university();
        // Build against a symbol no relationship carries: some class name
        // that never names an edge.
        let sym = schema
            .classes()
            .map(|c| schema.class(c).name)
            .find(|&s| schema.rels_named(s).is_empty())
            .expect("some class name is not a relationship name");
        let table = GoalTable::build(&schema, sym);
        for class in schema.classes() {
            assert!(!table.reachable(class));
            assert_eq!(table.best_rank_from(None, class), None);
            assert_eq!(table.best_semlen_from(0, None, class), None);
        }
    }
}
