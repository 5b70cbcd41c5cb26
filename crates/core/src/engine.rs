//! The completion engine: paper Algorithm 2 with a virtual edge-name
//! target, three pruning modes, and search statistics.

use crate::config::{CompletionConfig, Pruning, SearchLimits, LIMIT_CHECK_INTERVAL};
use crate::error::CompleteError;
use crate::multi;
use crate::observe;
use crate::path::Completion;
use crate::preempt::apply_inheritance_criterion;
use crate::resolve::{resolve_ast, RStep};
use ipe_algebra::moose::{
    agg_star, agg_star_into, at_least_distinct, in_caution_set, rank, survives_agg_star, Label,
};
use ipe_index::{GoalTable, SearchIndex};
use ipe_obs::{counter, Counter, EventKind, SearchTrace, SpanGuard};
use ipe_parser::PathExprAst;
use ipe_schema::{ClassId, RelId, Schema, Symbol};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Counters describing one completion run, mirroring the paper's Section
/// 5.4 measurements (each recursive call "corresponds to an exploration of
/// a class node in the schema").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct SearchStats {
    /// Recursive `traverse` calls (node explorations), the incumbent
    /// probe's included: an indexed Safe search counts the expansions of
    /// the bounded probes that seed `best[T]` here too, as it does their
    /// edges and prunes in the fields below (DESIGN §6.2).
    pub calls: u64,
    /// Out-edges considered for expansion.
    pub edges_considered: u64,
    /// Expansions skipped because the target class was already on the path
    /// (the acyclicity rule).
    pub pruned_visited: u64,
    /// Expansions skipped by the bound against `best[T]` (line 9).
    pub pruned_best_t: u64,
    /// Expansions skipped by the bound against `best[u]` (lines 10–11).
    pub pruned_best_u: u64,
    /// Expansions that failed the `best[u]` membership test but proceeded
    /// anyway because of a caution-set intersection (Paper mode only).
    pub caution_overrides: u64,
    /// Expansions skipped by the depth guard.
    pub depth_limited: u64,
    /// Expansions skipped because the index proved the target name
    /// unreachable from the edge's target class.
    pub pruned_index_unreachable: u64,
    /// Expansions skipped because the index lower bound proved every
    /// completion through the edge AGG*-dominated.
    pub pruned_index_bound: u64,
    /// Whole `~` segments rejected before any expansion because the index
    /// proved the anchor cannot reach the target name.
    pub index_segment_rejections: u64,
    /// Complete candidate paths recorded. The completions the incumbent
    /// probe finds only seed `best[T]` and are not counted.
    pub completions_recorded: u64,
}

impl SearchStats {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: SearchStats) {
        self.calls += other.calls;
        self.edges_considered += other.edges_considered;
        self.pruned_visited += other.pruned_visited;
        self.pruned_best_t += other.pruned_best_t;
        self.pruned_best_u += other.pruned_best_u;
        self.caution_overrides += other.caution_overrides;
        self.depth_limited += other.depth_limited;
        self.pruned_index_unreachable += other.pruned_index_unreachable;
        self.pruned_index_bound += other.pruned_index_bound;
        self.index_segment_rejections += other.index_segment_rejections;
        self.completions_recorded += other.completions_recorded;
    }

    /// Every counter as `(field name, value)`, in declaration order: the
    /// span attributes, the report's stats and the access log's prune
    /// total all read this list.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.rows()
            .into_iter()
            .map(|(name, _, value)| (name, value))
    }

    /// Expansions cut by any bound: the sum of the `pruned_*` fields.
    pub fn pruned(&self) -> u64 {
        self.fields()
            .filter_map(|(name, value)| name.starts_with("pruned_").then_some(value))
            .sum()
    }

    /// Publishes one finished segment search, aborted ones included:
    /// attaches every field to `span` and adds it to its registry counter.
    pub(crate) fn publish(&self, span: &mut SpanGuard) {
        for (name, counter, value) in self.rows() {
            span.attr(name, value);
            // A counter registers on its first add; skipping zeros keeps
            // never-seen events out of the snapshots.
            if value > 0 {
                counter.add(value);
            }
        }
    }

    /// The field list, written once, with the registry counter each field
    /// is published to. Both index prunes feed one registry name.
    #[rustfmt::skip]
    fn rows(&self) -> [(&'static str, &'static Counter, u64); 11] {
        const BY_INDEX: &str = "search.expansions_pruned_by_index";
        const REJECTED: &str = "search.segments_rejected_by_index";
        [
            ("calls", counter!("core.search.calls"), self.calls),
            ("edges_considered", counter!("core.search.edges"), self.edges_considered),
            ("pruned_visited", counter!("core.search.pruned_visited"), self.pruned_visited),
            ("pruned_best_t", counter!("core.search.pruned_best_t"), self.pruned_best_t),
            ("pruned_best_u", counter!("core.search.pruned_best_u"), self.pruned_best_u),
            ("caution_overrides", counter!("core.search.caution_overrides"), self.caution_overrides),
            ("depth_limited", counter!("core.search.depth_limited"), self.depth_limited),
            ("pruned_index_unreachable", counter!(BY_INDEX), self.pruned_index_unreachable),
            ("pruned_index_bound", counter!(BY_INDEX), self.pruned_index_bound),
            ("index_segment_rejections", counter!(REJECTED), self.index_segment_rejections),
            ("completions_recorded", counter!("core.search.completions"), self.completions_recorded),
        ]
    }
}

/// Completions plus the statistics of the run that produced them.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SearchOutcome {
    /// The optimal completions, best label first.
    pub completions: Vec<Completion>,
    /// Search counters.
    pub stats: SearchStats,
}

/// A [`SearchOutcome`] together with the structured event trace of the run
/// that produced it (see [`Completer::complete_traced`]).
#[derive(Clone, Debug)]
pub struct TracedOutcome {
    /// Completions and counters, as from
    /// [`complete_with_stats`](Completer::complete_with_stats).
    pub outcome: SearchOutcome,
    /// The recorded search events. Disabled (empty) in `obs-off` builds.
    pub trace: SearchTrace,
}

/// The completion engine over one schema.
///
/// Construction precomputes the exclusion bitmap for domain knowledge. The
/// first unindexed segment search also sorts, per class, the
/// out-relationships best-label-first (the paper's `children[v]`
/// ordering); an indexed search takes its order from the goal table.
pub struct Completer<'s> {
    schema: &'s Schema,
    config: CompletionConfig,
    sorted_out: OnceLock<Vec<Vec<RelId>>>,
    excluded: Vec<bool>,
    index: Option<SearchIndex>,
}

impl<'s> Completer<'s> {
    /// An engine with the default configuration (`E = 1`, Safe pruning,
    /// inheritance criterion on).
    pub fn new(schema: &'s Schema) -> Self {
        Self::with_config(schema, CompletionConfig::default())
    }

    /// An engine with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.e == 0`.
    pub fn with_config(schema: &'s Schema, config: CompletionConfig) -> Self {
        assert!(config.e >= 1, "AGG* requires E >= 1");
        let mut excluded = vec![false; schema.class_count()];
        for &c in &config.excluded_classes {
            excluded[c.index()] = true;
        }
        Completer {
            schema,
            config,
            sorted_out: OnceLock::new(),
            excluded,
            index: None,
        }
    }

    /// Attaches a precomputed [`SearchIndex`] built from this engine's
    /// schema. The index is used to reject unreachable `~` segments, cut
    /// provably dominated subtrees, and order successor expansion
    /// best-bound-first — without changing the completion sets or their
    /// ranks. Returns `false` (and leaves the engine unindexed) when the
    /// index does not structurally match the schema, e.g. a stale index
    /// from an earlier schema generation.
    pub fn attach_index(&mut self, index: SearchIndex) -> bool {
        if !index.matches(self.schema) {
            ipe_obs::counter!("core.index.attach_rejected", 1);
            return false;
        }
        self.index = Some(index);
        true
    }

    /// The out-relationships of `v` in the static best-label-first order
    /// unindexed search expands them in, sorted for every class on first
    /// use.
    fn sorted_out(&self, v: ClassId) -> &[RelId] {
        let sorted = self.sorted_out.get_or_init(|| {
            self.schema
                .classes()
                .map(|class| {
                    let mut rels: Vec<RelId> = self.schema.out_rels(class).map(|r| r.id).collect();
                    rels.sort_by_key(|&r| {
                        let kind = self.schema.rel(r).kind;
                        (rank(kind.connector()), kind.semantic_length())
                    });
                    rels
                })
                .collect()
        });
        &sorted[v.index()]
    }

    /// The attached search index, if any.
    pub fn index(&self) -> Option<&SearchIndex> {
        self.index.as_ref()
    }

    /// The schema this engine runs on.
    pub fn schema(&self) -> &'s Schema {
        self.schema
    }

    /// The active configuration.
    pub fn config(&self) -> &CompletionConfig {
        &self.config
    }

    /// Completes a parsed path expression.
    ///
    /// * A *complete* expression is validated by walking it and returned as
    ///   the single result.
    /// * An incomplete expression with its only `~` in final position runs
    ///   the full Algorithm 2 (with the configured pruning).
    /// * Expressions with interior or multiple `~` steps run the
    ///   general-case driver (exhaustive per-segment search with a global
    ///   final aggregation) — see `multi.rs`.
    pub fn complete(&self, ast: &PathExprAst) -> Result<Vec<Completion>, CompleteError> {
        self.complete_with_stats(ast).map(|o| o.completions)
    }

    /// Like [`complete`](Completer::complete), also returning statistics.
    pub fn complete_with_stats(&self, ast: &PathExprAst) -> Result<SearchOutcome, CompleteError> {
        self.complete_bounded(ast, &SearchLimits::default())
    }

    /// Like [`complete_with_stats`](Completer::complete_with_stats), under
    /// per-run [`SearchLimits`]: the search polls the deadline and the
    /// cancellation flag at node-expansion points and aborts with
    /// [`CompleteError::DeadlineExceeded`] / [`CompleteError::Cancelled`]
    /// instead of running arbitrarily long. This is the entry point the
    /// batch driver ([`crate::batch`]) and the service use.
    pub fn complete_bounded(
        &self,
        ast: &PathExprAst,
        limits: &SearchLimits,
    ) -> Result<SearchOutcome, CompleteError> {
        let mut trace = SearchTrace::disabled();
        self.complete_inner(ast, &mut trace, limits)
    }

    /// Like [`complete_with_stats`](Completer::complete_with_stats), also
    /// recording up to `trace_capacity` structured search events (node
    /// expansions, prunes, branch-and-bound cuts, caution-set overrides,
    /// final-filter rejections). In `obs-off` builds the returned trace is
    /// always empty.
    pub fn complete_traced(
        &self,
        ast: &PathExprAst,
        trace_capacity: usize,
    ) -> Result<TracedOutcome, CompleteError> {
        let mut trace = SearchTrace::with_capacity(trace_capacity);
        let outcome = self.complete_inner(ast, &mut trace, &SearchLimits::default())?;
        Ok(TracedOutcome { outcome, trace })
    }

    fn complete_inner(
        &self,
        ast: &PathExprAst,
        trace: &mut SearchTrace,
        limits: &SearchLimits,
    ) -> Result<SearchOutcome, CompleteError> {
        ipe_obs::counter!("core.queries", 1);
        let (root, steps) = {
            let _t = ipe_obs::timer!("core.phase.resolve");
            resolve_ast(self.schema, ast)?
        };
        let tilde_count = steps
            .iter()
            .filter(|s| matches!(s, RStep::Tilde { .. }))
            .count();
        if tilde_count == 0 {
            let completion = self.walk_complete(root, &steps)?;
            return Ok(SearchOutcome {
                completions: vec![completion],
                stats: SearchStats::default(),
            });
        }
        if tilde_count == 1 && matches!(steps.last(), Some(RStep::Tilde { .. })) {
            return self.complete_trailing_tilde(root, &steps, trace, limits);
        }
        multi::complete_general(self, root, &steps, trace, limits)
    }

    /// Validates a complete expression by walking it.
    pub(crate) fn walk_complete(
        &self,
        root: ClassId,
        steps: &[RStep],
    ) -> Result<Completion, CompleteError> {
        let mut current = root;
        let mut edges = Vec::with_capacity(steps.len());
        let mut label = Label::IDENTITY;
        for step in steps {
            let RStep::Explicit { kind, name } = *step else {
                unreachable!("walk_complete only handles explicit steps");
            };
            let rel = self.schema.out_rel_named(current, name).ok_or_else(|| {
                CompleteError::UnknownStep {
                    class: self.schema.class_name(current).to_owned(),
                    name: self.schema.name(name).to_owned(),
                }
            })?;
            if rel.kind != kind {
                return Err(CompleteError::ConnectorMismatch {
                    class: self.schema.class_name(current).to_owned(),
                    name: self.schema.name(name).to_owned(),
                    wrote: crate::resolve::connector_of_kind(kind),
                    actual: rel.kind.symbol(),
                });
            }
            label = label.extend(rel.kind);
            edges.push(rel.id);
            current = rel.target;
        }
        Ok(Completion { root, edges, label })
    }

    /// Fast path: explicit prefix followed by one trailing `~ name`.
    fn complete_trailing_tilde(
        &self,
        root: ClassId,
        steps: &[RStep],
        trace: &mut SearchTrace,
        limits: &SearchLimits,
    ) -> Result<SearchOutcome, CompleteError> {
        let (prefix_steps, tilde) = steps.split_at(steps.len() - 1);
        let RStep::Tilde { name } = tilde[0] else {
            unreachable!("caller checked the final step is a tilde");
        };
        // Walk the explicit prefix.
        let prefix = self.walk_complete(root, prefix_steps)?;
        let anchor = prefix.target(self.schema);
        let mut on_path = vec![false; self.schema.class_count()];
        for c in prefix.classes(self.schema) {
            on_path[c.index()] = true;
        }
        // The anchor is handled by the segment search itself.
        on_path[anchor.index()] = false;

        let mut seg_span = limits.span.child("search.segment");
        seg_span.note(self.schema.name(name));
        let mut search = SegmentSearch::new(self, name, false);
        search.trace = trace.take();
        search.limits = limits.clone();
        let mut path_buf = Vec::new();
        let unreachable = if self.index.is_some() {
            let mut ix_span = seg_span.handle().child("index.consult");
            let u = search.anchor_unreachable(anchor);
            ix_span.attr("segment_rejected", u as u64);
            u
        } else {
            search.anchor_unreachable(anchor)
        };
        let r = if unreachable {
            Ok(())
        } else {
            let _t = ipe_obs::timer!("core.phase.search");
            search.traverse(anchor, prefix.label, &mut on_path, &mut path_buf)
        };
        *trace = search.trace.take();
        search.stats.publish(&mut seg_span);
        seg_span.finish();
        r?;
        let SegmentSearch {
            mut found, stats, ..
        } = search;
        // Prepend the prefix edges.
        for c in &mut found {
            let mut edges = prefix.edges.clone();
            edges.append(&mut c.edges);
            c.edges = edges;
            c.root = root;
        }
        Ok(self.finalize_traced(found, stats, trace))
    }

    /// Final filtering shared by all drivers: inheritance-semantics
    /// preemption, AGG* on labels, and a stable quality sort.
    pub(crate) fn finalize(&self, found: Vec<Completion>, stats: SearchStats) -> SearchOutcome {
        self.finalize_traced(found, stats, &mut SearchTrace::disabled())
    }

    /// [`finalize`](Completer::finalize), additionally recording an
    /// [`EventKind::InheritanceReject`] or [`EventKind::AggDominated`]
    /// event for every completion the final filters drop.
    pub(crate) fn finalize_traced(
        &self,
        mut found: Vec<Completion>,
        stats: SearchStats,
        trace: &mut SearchTrace,
    ) -> SearchOutcome {
        let _t = ipe_obs::timer!("core.phase.finalize");
        if self.config.inheritance_criterion {
            let before = if trace.is_enabled() {
                found.clone()
            } else {
                Vec::new()
            };
            apply_inheritance_criterion(self.schema, &mut found);
            for c in before.iter().filter(|c| !found.contains(c)) {
                ipe_obs::counter!("core.finalize.inheritance_rejects", 1);
                trace.record(observe::ev(
                    EventKind::InheritanceReject,
                    c.target(self.schema),
                    &c.label,
                    c.edges.len(),
                ));
            }
        }
        let labels: Vec<Label> = found.iter().map(|c| c.label).collect();
        let keep: HashSet<Label> = agg_star(&labels, self.config.e).into_iter().collect();
        if trace.is_enabled() {
            for c in found.iter().filter(|c| !keep.contains(&c.label)) {
                trace.record(observe::ev(
                    EventKind::AggDominated,
                    c.target(self.schema),
                    &c.label,
                    c.edges.len(),
                ));
            }
        }
        found.retain(|c| keep.contains(&c.label));
        // The final `edges` tiebreaker makes the output independent of the
        // order completions were discovered in, so index-guided expansion
        // reordering cannot change the result among full quality ties.
        if self.config.prefer_specific {
            // Deeper final-edge source class (more ancestors) first among
            // otherwise equal keys. `ancestors` is a BFS that allocates, so
            // each completion's count is taken once, not per comparison.
            let mut keyed: Vec<(usize, Completion)> = found
                .into_iter()
                .map(|c| {
                    let depth = c.edges.last().map_or(0, |&e| {
                        self.schema.ancestors(self.schema.rel(e).source).len()
                    });
                    (depth, c)
                })
                .collect();
            keyed.sort_by(|(da, a), (db, b)| {
                (
                    rank(a.label.connector),
                    a.label.semlen,
                    std::cmp::Reverse(da),
                    a.edges.len(),
                )
                    .cmp(&(
                        rank(b.label.connector),
                        b.label.semlen,
                        std::cmp::Reverse(db),
                        b.edges.len(),
                    ))
                    .then_with(|| a.edges.cmp(&b.edges))
            });
            found = keyed.into_iter().map(|(_, c)| c).collect();
        } else {
            found.sort_by(|a, b| {
                (rank(a.label.connector), a.label.semlen, a.edges.len())
                    .cmp(&(rank(b.label.connector), b.label.semlen, b.edges.len()))
                    .then_with(|| a.edges.cmp(&b.edges))
            });
        }
        SearchOutcome {
            completions: found,
            stats,
        }
    }
}

/// One Algorithm-2 run for a single `~ name` segment.
pub(crate) struct SegmentSearch<'c, 's> {
    completer: &'c Completer<'s>,
    target_name: Symbol,
    /// When set, every consistent completion is recorded regardless of the
    /// running `best[T]` bound (used by the exhaustive oracle and by the
    /// general-case driver, where global optimality cannot be decided
    /// segment-locally).
    record_all: bool,
    /// `best[u]` of Algorithm 2, allocated only in the Paper modes.
    best: Vec<Vec<Label>>,
    best_t: Incumbent,
    pub(crate) found: Vec<Completion>,
    pub(crate) stats: SearchStats,
    /// Event sink, lent by the driver via [`SearchTrace::take`]; disabled
    /// by default so untraced runs pay one branch per event site.
    pub(crate) trace: SearchTrace,
    /// Per-run deadline/cancellation, polled every
    /// [`LIMIT_CHECK_INTERVAL`] node expansions; unlimited by default.
    pub(crate) limits: SearchLimits,
    /// Goal-directed lower bounds for `target_name`, present when the
    /// engine has an attached index. Admissible by construction (bounds
    /// over unrestricted walks, a superset of the simple paths the search
    /// enumerates), so index pruning never changes the completion set.
    goal: Option<Arc<GoalTable>>,
    /// The early-incumbent probe's state; set by
    /// [`traverse`](SegmentSearch::traverse) for an indexed Safe search
    /// that does not record every completion.
    probe: Option<Probe>,
}

/// Main-search calls at which the first incumbent probe starts; later
/// probes start at each doubling.
const PROBE_FIRST_CALL: u64 = 64;

/// A bounded search for short real completions, run now and then inside a
/// Safe, indexed segment search so that `best[T]` holds strong labels
/// before the depth-first order reaches them (DESIGN §6.2).
///
/// A probe reruns the search from the anchor in passes of rising
/// semantic-length ceiling: a pass skips every edge whose index lower
/// bound exceeds its ceiling. Its completions only feed `best[T]` and are
/// never recorded. Every label it adds is a real completion's, and Safe's
/// cuts hold against any set of real completion labels, so the completion
/// set does not change.
struct Probe {
    /// The segment's anchor and the label of the prefix that reaches it.
    anchor: ClassId,
    l_anchor: Label,
    /// Main-search calls at which the next probe starts.
    next_at: u64,
    /// Ceiling of the first pass no probe has finished yet.
    ceiling: u32,
    /// Calls spent in probes so far; never more than the main search's.
    calls: u64,
    /// Set while a pass runs; the pass's ceiling is `ceiling`.
    in_pass: bool,
    /// Whether the running pass skipped an edge for its ceiling.
    capped: bool,
    /// Set when the running probe must unwind: its budget is spent or
    /// `best[T]` holds `E` lengths.
    stop: bool,
    /// Whether a pass finished without skipping an edge for its ceiling, so
    /// a later probe could find nothing new.
    exhausted: bool,
}

impl<'c, 's> SegmentSearch<'c, 's> {
    pub(crate) fn new(completer: &'c Completer<'s>, target_name: Symbol, record_all: bool) -> Self {
        let goal = completer
            .index
            .as_ref()
            .and_then(|ix| ix.goal(completer.schema, target_name));
        let best_classes = match completer.config.pruning {
            Pruning::Paper | Pruning::PaperNoCaution => completer.schema.class_count(),
            Pruning::Safe | Pruning::None => 0,
        };
        SegmentSearch {
            completer,
            target_name,
            record_all,
            best: vec![Vec::new(); best_classes],
            best_t: Incumbent::default(),
            found: Vec::new(),
            stats: SearchStats::default(),
            trace: SearchTrace::disabled(),
            limits: SearchLimits::default(),
            goal,
            probe: None,
        }
    }

    /// Rejects a segment before any expansion when the index proves no walk
    /// from `anchor` ever reaches a `target_name` edge. Callers skip the
    /// whole `traverse` on `true`. Sound in every mode: the goal table's
    /// reachability closure covers all walks, hence all simple paths.
    pub(crate) fn anchor_unreachable(&mut self, anchor: ClassId) -> bool {
        let Some(goal) = &self.goal else {
            return false;
        };
        if goal.reachable(anchor) {
            return false;
        }
        self.stats.index_segment_rejections += 1;
        self.trace.record(observe::ev(
            EventKind::PruneIndex,
            anchor,
            &Label::IDENTITY,
            0,
        ));
        true
    }

    /// Depth-first traversal from `v` carrying the label `l_v` of the path
    /// so far. `on_path` marks classes already used (including any explicit
    /// prefix); `path` accumulates the segment's edges.
    ///
    /// Recorded completions contain only the segment's edges; the caller
    /// prepends any prefix.
    pub(crate) fn traverse(
        &mut self,
        v: ClassId,
        l_v: Label,
        on_path: &mut Vec<bool>,
        path: &mut Vec<RelId>,
    ) -> Result<(), CompleteError> {
        let goal = self.goal.clone();
        let probing = !self.record_all && self.completer.config.pruning == Pruning::Safe;
        if let (Some(g), true) = (&goal, probing) {
            self.probe = g
                .best_semlen_from(l_v.semlen, l_v.last, v)
                .map(|ceiling| Probe {
                    anchor: v,
                    l_anchor: l_v,
                    next_at: PROBE_FIRST_CALL,
                    ceiling,
                    calls: 0,
                    in_pass: false,
                    capped: false,
                    stop: false,
                    exhausted: false,
                });
        }
        self.expand(goal.as_deref(), v, l_v, on_path, path)
    }

    /// Whether `best[T]` already holds `E` distinct semantic lengths (all
    /// its labels share one rank), so no probe can tighten its length cut.
    fn incumbent_full(&self) -> bool {
        self.best_t.full_at.is_some()
    }

    /// Runs one incumbent probe from the main search's node at the end of
    /// `path`. The probe restores the prefix's `on_path` in a copy, runs
    /// passes from where the last probe left off, and stops once `best[T]`
    /// is full or its calls reach the main search's.
    fn run_probe(
        &mut self,
        goal: &GoalTable,
        on_path: &[bool],
        path: &[RelId],
    ) -> Result<(), CompleteError> {
        let schema = self.completer.schema;
        let Some(p) = self.probe.as_mut() else {
            return Ok(());
        };
        let (anchor, l_anchor) = (p.anchor, p.l_anchor);
        let mut probe_on_path = on_path.to_vec();
        probe_on_path[anchor.index()] = false;
        for &rid in path {
            probe_on_path[schema.rel(rid).target.index()] = false;
        }
        let mut probe_path = Vec::new();
        let r = loop {
            let p = self.probe.as_mut().expect("probe state is set");
            p.in_pass = true;
            p.capped = false;
            let r = self.expand(
                Some(goal),
                anchor,
                l_anchor,
                &mut probe_on_path,
                &mut probe_path,
            );
            let p = self.probe.as_mut().expect("probe state is set");
            p.in_pass = false;
            if r.is_err() || p.stop {
                break r;
            }
            if !p.capped {
                p.exhausted = true;
                break r;
            }
            p.ceiling += 1;
            if self.incumbent_full() {
                break r;
            }
        };
        if let Some(p) = self.probe.as_mut() {
            p.stop = false;
        }
        r
    }

    /// The recursion behind [`traverse`](SegmentSearch::traverse), with the
    /// goal table borrowed for the whole segment.
    fn expand(
        &mut self,
        goal: Option<&GoalTable>,
        v: ClassId,
        l_v: Label,
        on_path: &mut Vec<bool>,
        path: &mut Vec<RelId>,
    ) -> Result<(), CompleteError> {
        let schema = self.completer.schema;
        let cfg = &self.completer.config;
        let ceiling = self.probe.as_ref().filter(|p| p.in_pass).map(|p| p.ceiling);
        if let (Some(p), Some(_)) = (self.probe.as_mut(), ceiling) {
            // The main search's calls, `stats.calls - p.calls`, stand
            // still while a probe runs.
            if p.calls >= self.stats.calls - p.calls {
                p.stop = true;
                return Ok(());
            }
            p.calls += 1;
        }
        self.stats.calls += 1;
        if self.stats.calls.is_multiple_of(LIMIT_CHECK_INTERVAL) {
            self.limits.check()?;
        }
        self.trace
            .record(observe::ev(EventKind::Expand, v, &l_v, path.len()));
        if let (Some(p), Some(g), None) = (&mut self.probe, goal, ceiling) {
            if self.stats.calls - p.calls == p.next_at {
                p.next_at *= 2;
                if !p.exhausted && !self.incumbent_full() {
                    self.run_probe(g, on_path, path)?;
                }
            }
        }
        on_path[v.index()] = true;

        // With a goal table the successors are visited best-completion-
        // bound first, so strong completions are found early and the
        // branch-and-bound sets bite sooner; otherwise the engine's static
        // per-class order is used. Both orders hold the same edges.
        let out_order: &[RelId] = match goal {
            Some(g) => g.ordered_out(v),
            None => self.completer.sorted_out(v),
        };

        // Completion pass: the out-edge named N terminates candidate paths.
        // Done before expansion so best[T] blocks useless subtrees early
        // (the paper explores T's edges out of order for the same reason).
        // A class has at most one out-edge named N: the goal table holds it,
        // an unindexed search scans for it.
        let goal_edge = match goal {
            Some(g) => g.goal_edge(v),
            None => out_order
                .iter()
                .copied()
                .find(|&rid| schema.rel(rid).name == self.target_name),
        };
        if let Some(rid) = goal_edge {
            let rel = schema.rel(rid);
            if !on_path[rel.target.index()] && !self.completer.excluded[rel.target.index()] {
                let label = l_v.extend(rel.kind);
                let survives = self.best_t.fold(&label, cfg.e);
                if ceiling.is_some() {
                    // A probe only seeds best[T]; the main search records
                    // this completion when it reaches it.
                    if self.incumbent_full() {
                        if let Some(p) = self.probe.as_mut() {
                            p.stop = true;
                        }
                    }
                } else if survives || self.record_all {
                    if self.found.len() >= cfg.max_results {
                        on_path[v.index()] = false;
                        return Err(CompleteError::TooManyResults {
                            cap: cfg.max_results,
                        });
                    }
                    let mut edges = path.clone();
                    edges.push(rid);
                    self.found.push(Completion {
                        root: ClassId(ipe_graph::NodeId(0)), // set by caller
                        edges,
                        label,
                    });
                    self.stats.completions_recorded += 1;
                    self.trace.record(observe::ev(
                        EventKind::Emit,
                        rel.target,
                        &label,
                        path.len() + 1,
                    ));
                }
            }
        }

        // Expansion pass.
        for &rid in out_order {
            if self.probe.as_ref().is_some_and(|p| p.stop) {
                break;
            }
            let rel = schema.rel(rid);
            let u = rel.target;
            self.stats.edges_considered += 1;
            if on_path[u.index()] {
                self.stats.pruned_visited += 1;
                self.trace
                    .record(observe::ev(EventKind::PruneVisited, u, &l_v, path.len()));
                continue;
            }
            if self.completer.excluded[u.index()] {
                continue;
            }
            // A completion through u needs at least two more edges.
            if path.len() + 2 > cfg.max_depth {
                self.stats.depth_limited += 1;
                self.trace
                    .record(observe::ev(EventKind::PruneDepth, u, &l_v, path.len()));
                continue;
            }
            // Expanding into a class with no outgoing relationships cannot
            // produce a completion (primitives in particular).
            if schema.graph().out_edge_ids(u.0).is_empty() {
                self.trace
                    .record(observe::ev(EventKind::DeadEnd, u, &l_v, path.len()));
                continue;
            }
            // Index reachability prune: when the closure proves no walk from
            // u ever reaches a target-name edge, no simple path can either.
            // Sound in every mode, including record_all.
            if let Some(g) = goal {
                if !g.reachable(u) {
                    self.stats.pruned_index_unreachable += 1;
                    self.trace
                        .record(observe::ev(EventKind::PruneIndex, u, &l_v, path.len()));
                    continue;
                }
            }
            let l_u = l_v.extend(rel.kind);
            // Index bound prune: the best completion through u has rank
            // ≥ r̂ and semantic length ≥ ŝ (admissible walk-closure lower
            // bounds), so if best[T] already AGG*-dominates every such
            // future the subtree cannot contribute. Survivors of AGG* only
            // strengthen over time, so a label that is hopeless now stays
            // hopeless; skipped subtrees therefore never held a kept
            // completion. Disabled when recording all completions or when
            // pruning is off, where dominated paths must still be emitted.
            if !self.record_all && cfg.pruning != Pruning::None {
                if let Some(g) = goal {
                    if let (Some(r_hat), Some(s_hat)) = (
                        g.best_rank_from(Some(l_u.connector), u),
                        g.best_semlen_from(l_u.semlen, l_u.last, u),
                    ) {
                        let cut = self.best_t.outranks(r_hat) || self.best_t.blocks(r_hat, s_hat);
                        if cut {
                            self.stats.pruned_index_bound += 1;
                            self.trace.record(observe::ev(
                                EventKind::PruneIndex,
                                u,
                                &l_u,
                                path.len(),
                            ));
                            continue;
                        }
                        // A probe pass skips what cannot complete within
                        // its ceiling.
                        if ceiling.is_some_and(|b| s_hat > b) {
                            if let Some(p) = self.probe.as_mut() {
                                p.capped = true;
                            }
                            continue;
                        }
                    }
                }
            }
            if !self.should_explore(&l_u, u, path.len()) {
                continue;
            }
            if let Some(best_u) = self.best.get_mut(u.index()) {
                agg_star_into(best_u, &l_u, cfg.e);
            }
            path.push(rid);
            let r = self.expand(goal, u, l_u, on_path, path);
            path.pop();
            r?;
        }
        on_path[v.index()] = false;
        Ok(())
    }

    fn should_explore(&mut self, l_u: &Label, u: ClassId, depth: usize) -> bool {
        let cfg = &self.completer.config;
        match cfg.pruning {
            Pruning::None => true,
            Pruning::Paper | Pruning::PaperNoCaution => {
                // Line (9): l_u ∈ AGG*({l_u} ∪ best[T]).
                if !survives_agg_star(l_u, &self.best_t.labels, cfg.e) {
                    self.stats.pruned_best_t += 1;
                    self.trace
                        .record(observe::ev(EventKind::CutBestT, u, l_u, depth));
                    return false;
                }
                // Lines (10)-(11): survive against best[u] or hit a caution
                // set (the latter disabled in the ablation variant).
                if survives_agg_star(l_u, &self.best[u.index()], cfg.e) {
                    return true;
                }
                let caution = cfg.pruning == Pruning::Paper
                    && self.best[u.index()]
                        .iter()
                        .any(|b| in_caution_set(l_u.connector, b.connector));
                if caution {
                    self.stats.caution_overrides += 1;
                    self.trace
                        .record(observe::ev(EventKind::CautionOverride, u, l_u, depth));
                    true
                } else {
                    self.stats.pruned_best_u += 1;
                    self.trace
                        .record(observe::ev(EventKind::CutBestU, u, l_u, depth));
                    false
                }
            }
            Pruning::Safe => {
                // Against best[T], two sound bounds:
                //
                // 1. Rank: composition never strengthens a connector, so
                //    every future of l_u has rank ≥ rank(l_u); AGG* keeps
                //    only the minimum rank present, so one complete path of
                //    strictly lower rank kills this subtree at any E.
                // 2. Semantic length: a future adds ≥ -1, so l_u is
                //    hopeless once E distinct strictly better complete
                //    lengths exist at less-or-equal rank with margin 2.
                let r_u = rank(l_u.connector);
                if self.best_t.outranks(r_u)
                    || self.best_t.blocks(r_u, l_u.semlen.saturating_sub(1))
                {
                    self.stats.pruned_best_t += 1;
                    self.trace
                        .record(observe::ev(EventKind::CutBestT, u, l_u, depth));
                    return false;
                }
                // No cut against best[u]: on simple paths the label stored
                // at u may come from a path that already visits a class
                // l_u's best suffix needs, so whether it blocks depends on
                // the order successors are visited in.
                true
            }
        }
    }
}

/// `best[T]`: the labels of the completions found so far, AGG*-closed, so
/// they share one rank and hold at most `E` distinct semantic lengths. The
/// two facts every Safe cut reads are kept beside them, so a cut costs a
/// comparison rather than a pass over the labels.
#[derive(Default)]
struct Incumbent {
    labels: Vec<Label>,
    /// The rank every label has; `None` while there are none.
    rank: Option<u8>,
    /// The longest semantic length, once there are `E` distinct ones.
    full_at: Option<u32>,
}

impl Incumbent {
    /// Folds a completion's label in (AGG*); returns whether it survived.
    fn fold(&mut self, label: &Label, e: usize) -> bool {
        let survives = agg_star_into(&mut self.labels, label, e);
        if survives {
            self.rank = self.labels.first().map(|l| rank(l.connector));
            let lens = || self.labels.iter().map(|l| l.semlen);
            self.full_at = at_least_distinct(lens(), e).then(|| lens().max().unwrap_or(0));
        }
        survives
    }

    /// Whether a stored label has a rank strictly below `r`.
    fn outranks(&self, r: u8) -> bool {
        self.rank.is_some_and(|have| have < r)
    }

    /// Whether at least `E` distinct stored lengths are strictly below `s`
    /// at a rank no worse than `r`.
    fn blocks(&self, r: u8, s: u32) -> bool {
        self.rank.is_some_and(|have| have <= r) && self.full_at.is_some_and(|at| at < s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_parser::parse_path_expression;
    use ipe_schema::fixtures;

    fn texts(schema: &Schema, out: &[Completion]) -> Vec<String> {
        out.iter().map(|c| c.display(schema).to_string()).collect()
    }

    /// The paper's flagship example (Section 2.2.2): `ta ~ name` has
    /// exactly the two Isa-chain completions.
    #[test]
    fn ta_name_yields_the_two_paper_completions() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        let t = texts(&schema, &out);
        assert_eq!(t.len(), 2, "{t:?}");
        assert!(t.contains(&"ta@>grad@>student@>person.name".to_string()));
        assert!(t.contains(&"ta@>instructor@>teacher@>employee@>person.name".to_string()));
    }

    /// All three pruning modes agree on the flagship example.
    #[test]
    fn pruning_modes_agree_on_ta_name() {
        let schema = fixtures::university();
        let ast = parse_path_expression("ta~name").unwrap();
        let mut results = Vec::new();
        for pruning in [Pruning::None, Pruning::Paper, Pruning::Safe] {
            let cfg = CompletionConfig {
                pruning,
                ..Default::default()
            };
            let engine = Completer::with_config(&schema, cfg);
            let mut t = texts(&schema, &engine.complete(&ast).unwrap());
            t.sort();
            results.push(t);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    /// The intro example: the courses "of" a department are the courses
    /// taught by its faculty — and the courses taken by its students are an
    /// equally plausible reading; both labels are tied.
    #[test]
    fn department_take_finds_student_courses() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("department~take").unwrap())
            .unwrap();
        let t = texts(&schema, &out);
        assert!(t.contains(&"department.student.take".to_string()), "{t:?}");
    }

    #[test]
    fn complete_expression_is_validated_and_returned() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let ast = parse_path_expression("ta@>grad@>student@>person.name").unwrap();
        let out = engine.complete(&ast).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].display(&schema).to_string(),
            "ta@>grad@>student@>person.name"
        );
        assert_eq!(out[0].label.semlen, 1);
    }

    #[test]
    fn wrong_connector_in_complete_expression_errors() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let ast = parse_path_expression("ta$>grad").unwrap();
        assert!(matches!(
            engine.complete(&ast),
            Err(CompleteError::ConnectorMismatch { .. })
        ));
    }

    #[test]
    fn unknown_step_in_complete_expression_errors() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let ast = parse_path_expression("ta@>grad.take").unwrap();
        assert!(matches!(
            engine.complete(&ast),
            Err(CompleteError::UnknownStep { .. })
        ));
    }

    /// Explicit prefix + trailing tilde: `department.student~name` must
    /// anchor the search at `student` and respect the prefix for
    /// acyclicity.
    #[test]
    fn prefix_plus_tilde() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("department.student~name").unwrap())
            .unwrap();
        let t = texts(&schema, &out);
        assert!(
            t.contains(&"department.student@>person.name".to_string()),
            "{t:?}"
        );
        // Every result starts with the explicit prefix.
        assert!(t.iter().all(|s| s.starts_with("department.student")));
    }

    /// Domain knowledge: excluding `person` kills both Isa-chain
    /// completions of `ta ~ name`, surfacing the next-best alternatives.
    #[test]
    fn excluded_classes_are_never_used() {
        let schema = fixtures::university();
        let person = schema.class_named("person").unwrap();
        let cfg = CompletionConfig {
            excluded_classes: vec![person],
            ..Default::default()
        };
        let engine = Completer::with_config(&schema, cfg);
        let out = engine
            .complete(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        assert!(!out.is_empty());
        for c in &out {
            assert!(!c.classes(&schema).contains(&person));
        }
    }

    /// AGG* with E=2 admits strictly more (or equally many) results, all
    /// of which include the E=1 results.
    #[test]
    fn larger_e_is_monotone() {
        let schema = fixtures::university();
        let ast = parse_path_expression("ta~name").unwrap();
        let e1 = Completer::with_config(&schema, CompletionConfig::with_e(1));
        let e2 = Completer::with_config(&schema, CompletionConfig::with_e(2));
        let t1 = texts(&schema, &e1.complete(&ast).unwrap());
        let t2 = texts(&schema, &e2.complete(&ast).unwrap());
        assert!(t2.len() >= t1.len());
        for t in &t1 {
            assert!(t2.contains(t), "E=2 must contain E=1 result {t}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete_with_stats(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        assert!(out.stats.calls > 0);
        assert!(out.stats.edges_considered > 0);
        assert!(out.stats.completions_recorded >= out.completions.len() as u64);
    }

    /// Results are sorted best-first: rank, then semantic length.
    #[test]
    fn results_are_sorted_by_quality() {
        let schema = fixtures::university();
        let engine = Completer::with_config(&schema, CompletionConfig::with_e(3));
        let out = engine
            .complete(&parse_path_expression("department~name").unwrap())
            .unwrap();
        let keys: Vec<(u8, u32)> = out
            .iter()
            .map(|c| (rank(c.label.connector), c.label.semlen))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    /// Specificity preference (Section 7 future work): with two label-tied
    /// readings, the one whose final relationship hangs off the deeper
    /// class is presented first.
    #[test]
    fn prefer_specific_orders_ties() {
        use ipe_schema::{Primitive, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let root = b.class("root").unwrap();
        // A shallow branch: root .a-> flat, flat has `size`.
        let flat = b.class("flat").unwrap();
        b.assoc(root, flat, "a").unwrap();
        b.attr(flat, "size", Primitive::Real).unwrap();
        // A specific branch: root .b-> deep, where deep sits two Isa levels
        // below `base` and carries its own `size`.
        let base = b.class("base").unwrap();
        let mid = b.class("mid").unwrap();
        let deep = b.class("deep").unwrap();
        b.isa(mid, base).unwrap();
        b.isa(deep, mid).unwrap();
        b.assoc(root, deep, "b").unwrap();
        b.attr(deep, "size", Primitive::Real).unwrap();
        let schema = b.build().unwrap();

        // Both completions are [.., 2]: a genuine tie.
        let ast = parse_path_expression("root~size").unwrap();
        let plain = Completer::new(&schema).complete(&ast).unwrap();
        assert_eq!(plain.len(), 2);
        let specific = Completer::with_config(
            &schema,
            CompletionConfig {
                prefer_specific: true,
                ..Default::default()
            },
        )
        .complete(&ast)
        .unwrap();
        assert_eq!(specific.len(), 2, "ordering only, nothing dropped");
        // The reading through the more specific class (deep: 2 ancestors)
        // comes first.
        assert_eq!(specific[0].display(&schema).to_string(), "root.b.size");
        assert_eq!(specific[1].display(&schema).to_string(), "root.a.size");
    }

    /// `department ~ name` at E=1: the department's own name (1 edge,
    /// semantic length 1, connector `.`) beats every detour.
    #[test]
    fn department_name_prefers_own_attribute() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let out = engine
            .complete(&parse_path_expression("department~name").unwrap())
            .unwrap();
        let t = texts(&schema, &out);
        assert_eq!(t, vec!["department.name".to_string()]);
    }
}
