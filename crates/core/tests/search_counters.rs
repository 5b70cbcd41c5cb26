//! The search registry counters are the sums of the per-search
//! [`SearchStats`]: each segment search publishes its stats once when it
//! ends, so no counter is bumped on its own from the inner loop.
//!
//! This binary holds a single test so no other test in its process moves
//! the global counters between the two snapshots.

use ipe_core::{
    complete_batch, exhaustive, BatchOptions, CompleteError, Completer, CompletionConfig, Pruning,
    SearchLimits, SearchStats, LIMIT_CHECK_INTERVAL,
};
use ipe_gen::{cupid_like, generate_workload, WorkloadConfig};
use ipe_index::{IndexMode, IndexedSchema, SearchIndex};
use ipe_obs::RequestTrace;
use ipe_parser::{parse_path_expression, PathExprAst};
use ipe_schema::{fixtures, Schema};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Each registry name with the [`SearchStats`] fields it sums, written out
/// by hand so the test does not reuse the engine's own table.
fn expected(stats: &SearchStats) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("core.search.calls", stats.calls),
        ("core.search.edges", stats.edges_considered),
        ("core.search.completions", stats.completions_recorded),
        ("core.search.pruned_visited", stats.pruned_visited),
        ("core.search.pruned_best_t", stats.pruned_best_t),
        ("core.search.pruned_best_u", stats.pruned_best_u),
        ("core.search.caution_overrides", stats.caution_overrides),
        ("core.search.depth_limited", stats.depth_limited),
        (
            "search.expansions_pruned_by_index",
            stats.pruned_index_unreachable + stats.pruned_index_bound,
        ),
        (
            "search.segments_rejected_by_index",
            stats.index_segment_rejections,
        ),
    ])
}

fn registry() -> BTreeMap<&'static str, u64> {
    let names = expected(&SearchStats::default());
    ipe_obs::snapshot_counters()
        .into_iter()
        .filter(|c| names.contains_key(c.name))
        .map(|c| (c.name, c.value))
        .collect()
}

/// Registry deltas since `before`, zero-filled for every search name.
fn deltas(before: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    let after = registry();
    expected(&SearchStats::default())
        .into_keys()
        .map(|name| {
            let now = after.get(name).copied().unwrap_or(0);
            (name, now - before.get(name).copied().unwrap_or(0))
        })
        .collect()
}

fn engines(schema: &Schema, cfg: CompletionConfig) -> [Completer<'_>; 2] {
    let index: SearchIndex = Arc::new(IndexedSchema::build(schema, IndexMode::On));
    let plain = Completer::with_config(schema, cfg.clone());
    let mut indexed = Completer::with_config(schema, cfg);
    assert!(indexed.attach_index(index));
    [plain, indexed]
}

/// Runs `asts` through every engine in Safe and Paper mode at `e`, adding
/// each successful run's stats to `sum`.
fn run_all(schema: &Schema, asts: &[PathExprAst], e: usize, sum: &mut SearchStats) {
    for pruning in [Pruning::Safe, Pruning::Paper] {
        let cfg = CompletionConfig {
            e,
            pruning,
            ..Default::default()
        };
        for engine in engines(schema, cfg) {
            for ast in asts {
                let outcome = engine.complete_with_stats(ast).unwrap();
                sum.absorb(outcome.stats);
            }
        }
    }
}

/// The stats a traced search attached to its `search.segment` spans.
fn span_stats(trace: RequestTrace) -> SearchStats {
    let mut stats = SearchStats::default();
    for span in trace.finish().spans {
        assert_eq!(span.name, "search.segment");
        let attr = |name: &str| {
            let found = span.attrs.iter().find(|(k, _)| *k == name);
            found.map(|&(_, v)| v).unwrap_or(0)
        };
        stats.absorb(SearchStats {
            calls: attr("calls"),
            edges_considered: attr("edges_considered"),
            pruned_visited: attr("pruned_visited"),
            pruned_best_t: attr("pruned_best_t"),
            pruned_best_u: attr("pruned_best_u"),
            caution_overrides: attr("caution_overrides"),
            depth_limited: attr("depth_limited"),
            pruned_index_unreachable: attr("pruned_index_unreachable"),
            pruned_index_bound: attr("pruned_index_bound"),
            index_segment_rejections: attr("index_segment_rejections"),
            completions_recorded: attr("completions_recorded"),
        });
    }
    stats
}

#[test]
fn registry_counters_are_the_sums_of_search_stats() {
    // Generating the workload runs the engine, so it happens before the
    // first snapshot.
    let gen = cupid_like(1994);
    let workload = generate_workload(
        &gen,
        &WorkloadConfig {
            seed: 1995,
            ..Default::default()
        },
    );
    let cupid: Vec<PathExprAst> = workload.iter().take(3).map(|q| q.ast()).collect();
    let before = registry();
    let mut sum = SearchStats::default();

    // University: trailing `~` (with and without a prefix), interior and
    // multiple `~`, a second segment anchored at a primitive (which the
    // index rejects outright), and a depth-limited run.
    let university = fixtures::university();
    let asts: Vec<PathExprAst> = [
        "ta~name",
        "department.student~name",
        "department~take",
        "department~teach.name",
        "university~student~name",
        "ta~take~name",
        "ta~name~ssn",
    ]
    .iter()
    .map(|q| parse_path_expression(q).unwrap())
    .collect();
    run_all(&university, &asts, 2, &mut sum);
    let shallow = CompletionConfig {
        max_depth: 3,
        ..Default::default()
    };
    for engine in engines(&university, shallow) {
        sum.absorb(engine.complete_with_stats(&asts[0]).unwrap().stats);
    }

    // CUPID, seed 1994: the paper-calibrated workload's first queries.
    run_all(&gen.schema, &cupid, 3, &mut sum);

    // One batch through the indexed engine.
    let [plain, indexed] = engines(&gen.schema, CompletionConfig::with_e(3));
    let opts = BatchOptions {
        threads: 2,
        ..Default::default()
    };
    for item in complete_batch(&indexed, &cupid, &opts) {
        sum.absorb(item.result.unwrap().stats);
    }

    // One search stopped by a cancel flag set before it starts: it aborts
    // at the first poll, and its stats still count. The caller gets no
    // outcome, so they are read back from the search span.
    let trace = RequestTrace::start("cancelled".to_owned(), 0);
    let limits = SearchLimits {
        cancel: Some(Arc::new(AtomicBool::new(true))),
        span: trace.root_handle(),
        ..Default::default()
    };
    let err = plain.complete_bounded(&cupid[0], &limits).unwrap_err();
    assert_eq!(err, CompleteError::Cancelled);
    let cancelled = span_stats(trace);
    if !ipe_obs::disabled() {
        assert_eq!(cancelled.calls, LIMIT_CHECK_INTERVAL);
    }
    sum.absorb(cancelled);

    let got = deltas(&before);
    if ipe_obs::disabled() {
        assert!(got.values().all(|&d| d == 0), "obs-off counted: {got:?}");
        return;
    }
    assert_eq!(got, expected(&sum));
    // Every kind of event happened, so no equality above is 0 == 0 alone.
    for (name, value) in &got {
        assert!(*value > 0, "{name} never fired: {got:?}");
    }

    // The exhaustive oracle runs outside `Completer` and publishes
    // nothing.
    let before = registry();
    let ta = university.class_named("ta").unwrap();
    let all = exhaustive::all_consistent(&university, ta, "name", &Default::default()).unwrap();
    assert!(!all.is_empty());
    assert!(deltas(&before).values().all(|&d| d == 0));
}
