//! Regenerates the in-text statistics of **Section 5.3**:
//!
//! * "an average of over 500 acyclic path expressions are consistent with
//!   each incomplete path expression";
//! * "only 2-3 of them are returned by the algorithm when E=1";
//! * "the average length of path expressions returned as an answer ... was
//!   about 15".
//!
//! Run: `cargo run -p ipe-bench --release --bin stats_table [seed]`

use ipe_bench::{experiment_setup, DEFAULT_SEED};
use ipe_core::{exhaustive, Completer, CompletionConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let (gen, workload) = experiment_setup(seed);
    let schema = &gen.schema;
    println!(
        "Section 5.3 statistics  (schema: {} user classes, {} relationships, seed {seed})\n",
        schema.user_class_count(),
        schema.rel_count()
    );
    let engine = Completer::new(schema);
    let oracle_cfg = CompletionConfig {
        max_depth: 16,
        max_results: 100_000,
        ..Default::default()
    };
    let mut rows = Vec::new();
    let mut sum_consistent = 0usize;
    let mut sum_returned = 0usize;
    let mut sum_len = 0usize;
    let mut len_count = 0usize;
    for (i, q) in workload.iter().enumerate() {
        let root = schema.class_named(&q.root).expect("workload class");
        let consistent = exhaustive::all_consistent(schema, root, &q.target, &oracle_cfg)
            .map(|v| v.len())
            .unwrap_or(oracle_cfg.max_results);
        let answers = engine.complete(&q.ast()).unwrap_or_default();
        let returned = answers.len();
        let total_len: usize = answers.iter().map(|c| c.len()).sum();
        let avg_len = if returned == 0 {
            0.0
        } else {
            total_len as f64 / returned as f64
        };
        sum_consistent += consistent;
        sum_returned += returned;
        sum_len += total_len;
        len_count += returned;
        rows.push(vec![
            (i + 1).to_string(),
            q.expr.clone(),
            consistent.to_string(),
            returned.to_string(),
            format!("{avg_len:.1}"),
        ]);
    }
    print!(
        "{}",
        ipe_metrics::table::render(
            &[
                "#",
                "query",
                "consistent acyclic paths (≤16 edges)",
                "returned at E=1",
                "avg answer length"
            ],
            &rows
        )
    );
    println!();
    let n = workload.len().max(1);
    println!(
        "averages: {:.0} consistent paths/query (paper: >500), {:.1} returned at E=1 (paper: 2-3), answer length {:.1} (paper: ~15)",
        sum_consistent as f64 / n as f64,
        sum_returned as f64 / n as f64,
        if len_count == 0 { 0.0 } else { sum_len as f64 / len_count as f64 },
    );
    ipe_bench::write_run_report("stats_table", &[("seed", &seed.to_string())]);
}
