//! Ablations of the design choices the paper argues for, on the Figure 7
//! workload at `E` = 1, 3 and 5 (machine-independent columns only):
//!
//! * **pruning and caution sets** — `Safe` (the default), `Paper`
//!   (Algorithm 2 verbatim, caution sets included) and `PaperNoCaution`
//!   (Algorithm 2 trusting distributivity, i.e. caution sets off);
//! * **the Inheritance Semantics Criterion** (Section 4.3) on and off;
//! * **the order `≺`** — optimal-set sizes over every consistent acyclic
//!   completion under the paper's partial order, under a *flat* order
//!   (semantic length only) and under a *total* order (rank, then length,
//!   ties broken by enumeration order).
//!
//! "lost" counts the answers of `exhaustive::optimal_via_enumeration`
//! (under the same `E` and criterion setting) that the engine misses.
//!
//! Run: `cargo run -p ipe-bench --release --bin ablation [seed]`

use ipe_algebra::moose::{agg_star, Label};
use ipe_bench::{experiment_setup, DEFAULT_SEED};
use ipe_core::{exhaustive, Completer, Completion, CompletionConfig, Pruning};
use ipe_schema::Schema;
use std::collections::BTreeSet;

const E_VALUES: [usize; 3] = [1, 3, 5];

fn texts(schema: &Schema, completions: &[Completion]) -> BTreeSet<String> {
    completions
        .iter()
        .map(|c| c.display(schema).to_string())
        .collect()
}

/// Completions whose label survives `AGG*` over the whole population: the
/// optimal set under the paper's `≺`.
fn paper_optimal(population: &[Completion], e: usize) -> usize {
    let labels: Vec<Label> = population.iter().map(|c| c.label).collect();
    let kept = agg_star(&labels, e);
    population
        .iter()
        .filter(|c| kept.contains(&c.label))
        .count()
}

/// Completions whose semantic length is among the `e` lowest distinct
/// ones, connectors ignored.
fn flat_optimal(population: &[Completion], e: usize) -> usize {
    let lens: BTreeSet<u32> = population.iter().map(|c| c.label.semlen).collect();
    match lens.iter().nth(e - 1).or(lens.last()) {
        Some(&cutoff) => population
            .iter()
            .filter(|c| c.label.semlen <= cutoff)
            .count(),
        None => 0,
    }
}

/// The `e` first completions under (rank, semantic length, enumeration
/// order): a total order admits no ties, so it keeps exactly `e` of them
/// (all of them when fewer exist).
fn total_optimal(population: &[Completion], e: usize) -> usize {
    population.len().min(e)
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let (gen, workload) = experiment_setup(seed);
    let schema = &gen.schema;
    let roots: Vec<_> = workload
        .iter()
        .map(|q| schema.class_named(&q.root).expect("workload class"))
        .collect();
    println!(
        "Ablations  (CUPID-calibrated schema, seed {seed}, {} queries; each cell sums over the queries)\n",
        workload.len()
    );

    let variants = [
        (Pruning::Safe, true),
        (Pruning::Paper, true),
        (Pruning::PaperNoCaution, true),
        (Pruning::Safe, false),
    ];
    let mut rows = Vec::new();
    for e in E_VALUES {
        for (pruning, inheritance_criterion) in variants {
            let config = CompletionConfig {
                e,
                pruning,
                inheritance_criterion,
                ..Default::default()
            };
            let engine = Completer::with_config(schema, config.clone());
            let (mut calls, mut results, mut lost) = (0u64, 0usize, 0usize);
            for (q, &root) in workload.iter().zip(&roots) {
                let got = engine
                    .complete_with_stats(&q.ast())
                    .expect("workload query");
                let want = exhaustive::optimal_via_enumeration(schema, root, &q.target, &config)
                    .expect("workload query");
                calls += got.stats.calls;
                results += got.completions.len();
                let got = texts(schema, &got.completions);
                lost += texts(schema, &want.completions)
                    .iter()
                    .filter(|t| !got.contains(*t))
                    .count();
            }
            rows.push(vec![
                e.to_string(),
                format!("{pruning:?}"),
                if inheritance_criterion { "on" } else { "off" }.to_owned(),
                calls.to_string(),
                results.to_string(),
                lost.to_string(),
            ]);
        }
    }
    println!("Pruning modes (caution sets on/off) and the Inheritance Semantics Criterion:");
    print!(
        "{}",
        ipe_metrics::table::render(
            &[
                "E",
                "pruning",
                "inheritance criterion",
                "recursive calls",
                "results",
                "lost vs oracle"
            ],
            &rows
        )
    );

    let populations: Vec<Vec<Completion>> = workload
        .iter()
        .zip(&roots)
        .map(|(q, &root)| {
            exhaustive::all_consistent(schema, root, &q.target, &CompletionConfig::default())
                .expect("workload query")
        })
        .collect();
    let candidates: usize = populations.iter().map(Vec::len).sum();
    let rows: Vec<Vec<String>> = E_VALUES
        .iter()
        .map(|&e| {
            let sum = |f: fn(&[Completion], usize) -> usize| -> String {
                populations
                    .iter()
                    .map(|p| f(p, e))
                    .sum::<usize>()
                    .to_string()
            };
            vec![
                e.to_string(),
                sum(paper_optimal),
                sum(flat_optimal),
                sum(total_optimal),
            ]
        })
        .collect();
    println!();
    println!("Optimal-set sizes by order, over all {candidates} consistent acyclic completions:");
    print!(
        "{}",
        ipe_metrics::table::render(
            &[
                "E",
                "paper order (AGG*)",
                "flat (semantic length only)",
                "total (rank, then length)"
            ],
            &rows
        )
    );
    ipe_bench::write_run_report("ablation", &[("seed", &seed.to_string())]);
}
