//! Shared helpers for the experiment binaries.
//!
//! Each binary regenerates one table or figure of the paper — see
//! EXPERIMENTS.md at the workspace root for the index and the recorded
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ipe_gen::{cupid_like, generate_workload, GeneratedSchema, QuerySpec, WorkloadConfig};

/// The default seed for all experiment binaries, so EXPERIMENTS.md is
/// reproducible bit-for-bit.
pub const DEFAULT_SEED: u64 = 1994;

/// Builds the CUPID-calibrated schema and the 10-query workload used by
/// Figures 5–7 and the statistics table.
///
/// The workload generator runs the engine to pick each query's intended
/// answers, so the metric registries are zeroed before returning: the
/// `BENCH_<name>.json` reports count only what the binary measures.
pub fn experiment_setup(seed: u64) -> (GeneratedSchema, Vec<QuerySpec>) {
    experiment_setups(seed, 1).pop().expect("one set-up")
}

/// [`experiment_setup`] for the `n` seeds from `first` on, all built before
/// the registries are zeroed once. A binary that averages over seeds sets
/// them all up here: setting up each seed inside its measuring loop would
/// zero the counts of the seeds already measured.
pub fn experiment_setups(first: u64, n: u64) -> Vec<(GeneratedSchema, Vec<QuerySpec>)> {
    let setups = (first..first + n)
        .map(|seed| {
            let gen = cupid_like(seed);
            let workload = generate_workload(
                &gen,
                &WorkloadConfig {
                    seed: seed.wrapping_add(1),
                    ..Default::default()
                },
            );
            (gen, workload)
        })
        .collect();
    ipe_obs::reset_metrics();
    setups
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a machine-readable run report for an experiment binary.
///
/// The report captures the global `ipe-obs` counter/timer registries plus
/// any key/value metadata the binary supplies, and lands in
/// `BENCH_<name>.json` — in `$OBS_REPORT_DIR` when set, else the current
/// directory. Failures are reported on stderr but never fail the
/// experiment; in `obs-off` builds the metric sections are empty.
pub fn write_run_report(name: &str, meta: &[(&str, &str)]) {
    write_run_report_with_stats(name, meta, &[]);
}

/// [`write_run_report`], additionally recording named numeric statistics
/// in the report's `stats` section (throughputs, percentiles, ...).
pub fn write_run_report_with_stats(name: &str, meta: &[(&str, &str)], stats: &[(&str, u64)]) {
    let mut report = ipe_obs::Report::new();
    report.meta("experiment", name);
    for (k, v) in meta {
        report.meta(*k, *v);
    }
    for (k, v) in stats {
        report.stat(*k, *v);
    }
    report.capture_metrics();
    let dir = std::env::var("OBS_REPORT_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    match report.write_to(&path) {
        Ok(()) => eprintln!("(run report written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write run report {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by every test that runs searches, so none moves the global
    /// counters while another reads them.
    static SEARCHES: Mutex<()> = Mutex::new(());

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(pct(0.893), "89.3%");
    }

    #[test]
    fn setup_is_deterministic_and_full() {
        let _searches = SEARCHES.lock().unwrap_or_else(|e| e.into_inner());
        let (a_gen, a_wl) = experiment_setup(7);
        let (b_gen, b_wl) = experiment_setup(7);
        assert_eq!(a_gen.schema.to_json(), b_gen.schema.to_json());
        assert_eq!(a_wl.len(), 10);
        assert_eq!(
            a_wl.iter().map(|q| &q.expr).collect::<Vec<_>>(),
            b_wl.iter().map(|q| &q.expr).collect::<Vec<_>>()
        );
    }

    fn search_calls() -> u64 {
        ipe_obs::snapshot_counters()
            .into_iter()
            .find(|c| c.name == "core.search.calls")
            .map_or(0, |c| c.value)
    }

    /// The set-up searches of the workload generator are not counted.
    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn setup_leaves_no_search_counts() {
        let _searches = SEARCHES.lock().unwrap_or_else(|e| e.into_inner());
        experiment_setup(1994);
        assert_eq!(search_calls(), 0);
    }

    /// Searches on every seed of a multi-seed set-up are counted, and only
    /// those.
    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn setups_leave_every_measured_search_counted() {
        let _searches = SEARCHES.lock().unwrap_or_else(|e| e.into_inner());
        let setups = experiment_setups(1994, 2);
        assert_eq!(setups.len(), 2);
        let mut measured = 0;
        for (gen, workload) in &setups {
            let engine = ipe_core::Completer::new(&gen.schema);
            let outcome = engine.complete_with_stats(&workload[0].ast()).unwrap();
            measured += outcome.stats.calls;
        }
        assert!(measured > 0);
        assert_eq!(search_calls(), measured);
    }
}
