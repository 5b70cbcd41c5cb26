//! Regenerates **Figure 7** of the paper: response time per incomplete
//! query at `E = 5`, queries ordered by increasing processing complexity,
//! plus the per-recursive-call cost the paper reports (0.17 ms on a
//! DecStation 5000/25; absolute numbers differ on modern hardware — the
//! machine-independent quantity is the call count).
//!
//! Run: `cargo run -p ipe-bench --release --bin fig7_response_time [seed]`

use ipe_bench::{experiment_setup, DEFAULT_SEED};
use ipe_metrics::time_queries;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let (gen, workload) = experiment_setup(seed);
    let timings = time_queries(&gen, &workload, 5);
    println!("Figure 7: response time per query at E=5  (CUPID-calibrated schema, seed {seed})\n");
    let rows: Vec<Vec<String>> = timings
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                (i + 1).to_string(),
                t.expr.clone(),
                format!("{:.3}", t.micros as f64 / 1000.0),
                t.calls.to_string(),
                t.results.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        ipe_metrics::table::render(
            &["#", "query", "time (ms)", "recursive calls", "results"],
            &rows
        )
    );
    let total_ms: f64 = timings.iter().map(|t| t.micros as f64 / 1000.0).sum();
    let total_calls: u64 = timings.iter().map(|t| t.calls).sum();
    let max_ms = timings
        .iter()
        .map(|t| t.micros as f64 / 1000.0)
        .fold(0.0f64, f64::max);
    let ns_per_call = if total_calls == 0 {
        0.0
    } else {
        total_ms * 1e6 / total_calls as f64
    };
    println!();
    println!(
        "average response: {:.3} ms   worst: {:.3} ms   avg cost/recursive call: {} ns",
        total_ms / timings.len().max(1) as f64,
        max_ms,
        three_significant(ns_per_call),
    );
    println!("paper: avg 6.29 s, worst 14.45 s, 0.17 ms per recursive call (1994 hardware);");
    println!("the expected shape — orders of magnitude of variance across queries, worst several times the average — holds.");
    ipe_bench::write_run_report("fig7_response_time", &[("seed", &seed.to_string())]);
}

/// `x` with at least three significant digits (more for values of 1000
/// and up, which print whole).
fn three_significant(x: f64) -> String {
    let decimals = if x > 0.0 {
        (2 - x.log10().floor() as i32).max(0) as usize
    } else {
        0
    };
    format!("{x:.decimals$}")
}
