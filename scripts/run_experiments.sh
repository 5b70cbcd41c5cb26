#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation plus the
# extension studies and the ablations, writing the combined output to
# experiments_output.txt.
# Usage: scripts/run_experiments.sh [seed] [#seeds]
set -euo pipefail
cd "$(dirname "$0")/.."
SEED="${1:-1994}"
NSEEDS="${2:-3}"
OUT=experiments_output.txt

cargo build --release -p ipe-bench

{
  echo "== Table 1 =="
  cargo run -q -p ipe-bench --release --bin table1_con
  echo; echo "== Figure 3 =="
  cargo run -q -p ipe-bench --release --bin fig3_order
  echo; echo "== Section 5.3 statistics =="
  cargo run -q -p ipe-bench --release --bin stats_table -- "$SEED"
  echo; echo "== Figure 5 =="
  cargo run -q -p ipe-bench --release --bin fig5_recall -- "$SEED" "$NSEEDS"
  echo; echo "== Figure 6 =="
  cargo run -q -p ipe-bench --release --bin fig6_precision -- "$SEED" "$NSEEDS"
  echo; echo "== Figure 7 =="
  cargo run -q -p ipe-bench --release --bin fig7_response_time -- "$SEED"
  echo; echo "== Extension: baseline comparison =="
  cargo run -q -p ipe-bench --release --bin baseline_compare -- "$SEED" 2
  echo; echo "== Extension: scaling =="
  cargo run -q -p ipe-bench --release --bin scaling
  echo; echo "== Ablations =="
  cargo run -q -p ipe-bench --release --bin ablation -- "$SEED"
} | tee "$OUT"
