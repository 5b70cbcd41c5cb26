//! Index-guided search vs cold Algorithm-2 DFS (an extension beyond the
//! paper's evaluation): for each schema size, build the closure index
//! once, run the same workload with and without it, and compare node
//! expansions. The completion sets must be *identical* — the index only
//! reorders and prunes work the bounds prove fruitless — and the headline
//! number is the expansion reduction, asserted to be at least
//! [`MIN_SPEEDUP_X`] in aggregate over each `E`'s rows.
//!
//! Also records what the index costs: one-off build time per schema size,
//! so the break-even point (a handful of queries) is visible next to the
//! per-query savings. A third engine runs the workload over a lazy index,
//! which builds a goal table the first time a query names it; it must
//! return the same completion sets, and the number of tables it built,
//! next to the eager build's count, is how much of the eager build the
//! workload reads.
//!
//! Every size runs at `E = 1`, and all but the largest at `E = 3`, where
//! Safe's length cut needs three distinct lengths in `best[T]` and the
//! indexed search's incumbent probe does most of its work (DESIGN §6.2).
//!
//! Writes `BENCH_index.json` (see `ipe_bench::write_run_report_with_stats`).
//! `--smoke` runs the same correctness assertions on the two smaller
//! sizes only, in well under a second.

use ipe_bench::write_run_report_with_stats;
use ipe_core::{Completer, CompletionConfig};
use ipe_gen::{generate_schema, generate_workload, GenConfig, WorkloadConfig};
use ipe_index::{IndexMode, IndexedSchema, SearchIndex};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Minimum aggregate node-expansion reduction (plain / indexed) the run
/// must demonstrate, checked on each `E`'s rows on their own.
const MIN_SPEEDUP_X: f64 = 2.0;

/// The `E` values the sizes run at, each with the largest size it runs: the
/// cold DFS grows steeply with `E`, and takes minutes at 184 classes even
/// at `E = 1`.
const ES: [(usize, usize); 2] = [(1, usize::MAX), (3, 92)];

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(ipe_bench::DEFAULT_SEED);
    let sizes: &[usize] = if smoke { &[23, 46] } else { &[23, 46, 92, 184] };
    let queries = if smoke { 6 } else { 12 };
    println!("Index-guided search vs cold DFS (Safe pruning)\n");

    let mut rows = Vec::new();
    let mut stats: Vec<(String, u64)> = Vec::new();
    // Per-`E` call totals, in `ES` order: each `E` has its own gate.
    let mut totals = [(0u64, 0u64); ES.len()];
    let runs = ES.iter().enumerate().flat_map(|(at, &(e, largest))| {
        sizes
            .iter()
            .filter(move |&&c| c <= largest)
            .map(move |&c| (at, e, c))
    });
    for (at, e, classes) in runs {
        let gen = generate_schema(&GenConfig {
            classes,
            tree_roots: 3,
            assoc_edges: classes / 8,
            hubs: 2,
            hub_degree: classes / 9,
            seed,
            ..GenConfig::default()
        });
        let workload = generate_workload(
            &gen,
            &WorkloadConfig {
                queries,
                walk_len: (3, (classes / 8).clamp(4, 14)),
                min_answer_len: 3,
                seed: seed + 1,
                ..Default::default()
            },
        );

        let build_start = Instant::now();
        let index: SearchIndex = Arc::new(IndexedSchema::build(&gen.schema, IndexMode::On));
        let build_us = build_start.elapsed().as_micros() as u64;

        let eager_tables = index.goal_count() as u64;
        let lazy: SearchIndex = Arc::new(IndexedSchema::build(&gen.schema, IndexMode::Lazy));

        let cfg = CompletionConfig::with_e(e);
        let plain = Completer::with_config(&gen.schema, cfg.clone());
        let mut indexed = Completer::with_config(&gen.schema, cfg.clone());
        assert!(indexed.attach_index(index), "fresh index must fit");
        let mut lazily = Completer::with_config(&gen.schema, cfg);
        assert!(
            lazily.attach_index(Arc::clone(&lazy)),
            "fresh index must fit"
        );

        let mut plain_calls = 0u64;
        let mut indexed_calls = 0u64;
        let mut plain_ms = 0.0f64;
        let mut indexed_ms = 0.0f64;
        let mut lazy_ms = 0.0f64;
        for q in &workload {
            let ast = q.ast();
            let start = Instant::now();
            let cold = plain.complete_with_stats(&ast).expect("plain search");
            plain_ms += start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let guided = indexed.complete_with_stats(&ast).expect("indexed search");
            indexed_ms += start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let deferred = lazily.complete_with_stats(&ast).expect("lazy search");
            lazy_ms += start.elapsed().as_secs_f64() * 1e3;
            let render = |o: &ipe_core::SearchOutcome| -> Vec<String> {
                o.completions
                    .iter()
                    .map(|c| c.display(&gen.schema).to_string())
                    .collect()
            };
            assert_eq!(
                render(&cold),
                render(&guided),
                "completion sets diverged on `{}` ({classes} classes, E={e})",
                q.expr
            );
            assert_eq!(
                render(&cold),
                render(&deferred),
                "lazy-index completion sets diverged on `{}` ({classes} classes, E={e})",
                q.expr
            );
            assert_eq!(
                guided.stats, deferred.stats,
                "lazy and eager index searches differ on `{}` ({classes} classes, E={e})",
                q.expr
            );
            plain_calls += cold.stats.calls;
            indexed_calls += guided.stats.calls;
        }
        let lazy_tables = lazy.goal_count() as u64;
        totals[at].0 += plain_calls;
        totals[at].1 += indexed_calls;
        let ratio = plain_calls as f64 / indexed_calls.max(1) as f64;
        rows.push(vec![
            e.to_string(),
            classes.to_string(),
            gen.schema.rel_count().to_string(),
            format!("{:.1} ms", build_us as f64 / 1e3),
            format!("{plain_calls} ({plain_ms:.1} ms)"),
            format!("{indexed_calls} ({indexed_ms:.1} ms)"),
            format!("{lazy_tables}/{eager_tables} tables ({lazy_ms:.1} ms)"),
            format!("{ratio:.1}x"),
        ]);
        // E = 1 keeps the stat names it had before E = 3 rows existed.
        let key = match e {
            1 => classes.to_string(),
            _ => format!("{classes}_e{e}"),
        };
        stats.push((format!("build_us_{key}"), build_us));
        stats.push((format!("goal_tables_built_{key}"), lazy_tables));
        stats.push((format!("goal_tables_eager_{key}"), eager_tables));
        stats.push((format!("plain_calls_{key}"), plain_calls));
        stats.push((format!("indexed_calls_{key}"), indexed_calls));
    }
    print!(
        "{}",
        ipe_metrics::table::render(
            &[
                "E",
                "classes",
                "rels",
                "index build",
                "cold DFS calls",
                "indexed calls",
                "lazy index",
                "reduction",
            ],
            &rows
        )
    );
    println!();
    for (&(e, _), &(total_plain, total_indexed)) in ES.iter().zip(&totals) {
        let overall = total_plain as f64 / total_indexed.max(1) as f64;
        println!("overall expansion reduction at E={e}: {overall:.1}x (identical completion sets)");
        assert!(
            overall >= MIN_SPEEDUP_X,
            "index must cut node expansions at least {MIN_SPEEDUP_X}x at E={e}, \
             got {overall:.2}x ({total_plain} -> {total_indexed})"
        );
        // E = 1 keeps the stat names it had before E = 3 rows existed.
        let suffix = match e {
            1 => String::new(),
            _ => format!("_e{e}"),
        };
        stats.push((format!("total_plain_calls{suffix}"), total_plain));
        stats.push((format!("total_indexed_calls{suffix}"), total_indexed));
        stats.push((format!("reduction_pct{suffix}"), (overall * 100.0) as u64));
    }
    let stat_refs: Vec<(&str, u64)> = stats.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_run_report_with_stats(
        "index",
        &[
            ("seed", &seed.to_string()),
            ("smoke", if smoke { "true" } else { "false" }),
            ("queries_per_size", &queries.to_string()),
        ],
        &stat_refs,
    );
    ExitCode::SUCCESS
}
