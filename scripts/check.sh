#!/usr/bin/env bash
# The full local gate: build, tests, lints, formatting — in both metrics
# modes. CI-equivalent; run before pushing.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== build (obs-off) =="
cargo build --workspace --features ipe/obs-off

echo "== tests =="
cargo test -q --workspace

echo "== tests (obs-off) =="
cargo test -q -p ipe-obs -p ipe-algebra -p ipe-core -p ipe-index -p ipe-oodb -p ipe-query -p ipe-repl -p ipe-service -p ipe-store -p ipe-tenant --features obs-off

echo "== service smoke (incl. 64-connection reactor burst) =="
serve_log="$(mktemp)"
./target/release/ipe serve --addr 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#.*http://##p' "$serve_log" | head -n 1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "error: server never announced its address:" >&2
  cat "$serve_log" >&2
  exit 1
fi
./target/release/service_load --smoke --shutdown --addr "$addr"
wait "$serve_pid"   # clean exit after POST /v1/shutdown
trap - EXIT
rm -f "$serve_log"

echo "== reactor partial-I/O edges =="
# Slow-loris heads, split request lines, write backpressure, mid-body
# deadline expiry — the front end's worst-case socket behaviour.
cargo test -q -p ipe-service --test reactor_edges

echo "== metrics-lint =="
# Prometheus exposition must pass the in-repo format lint, in both modes:
# the service-level test hits GET /metrics?format=prometheus on a live
# server and runs ipe_obs::prom::lint over the body.
cargo test -q -p ipe-obs prom
cargo test -q -p ipe-service --test server prometheus_
cargo test -q -p ipe-service --test server prometheus_ --features obs-off

echo "== flight-recorder repeat =="
# The flight-recorder tests run 20 times, so a timing flake shows here
# before merge rather than in a later full run.
for _ in $(seq 1 20); do
  cargo test -q -p ipe-service --test server flight_recorder_
done

echo "== batch smoke =="
./target/release/batch_bench --smoke

echo "== index smoke =="
./target/release/index_bench --smoke

echo "== query smoke =="
./target/release/query_bench --smoke

echo "== store smoke =="
./target/release/store_bench --smoke

echo "== store kill -9 recovery smoke =="
./target/release/store_bench --kill9-smoke

echo "== replication smoke =="
./target/release/repl_bench --smoke

echo "== tenant smoke =="
./target/release/tenant_bench --smoke

echo "== WAL v1 -> v2 migration =="
cargo test -q -p ipe-store --test migration

echo "== replication kill -9 catch-up smoke =="
./target/release/repl_bench --kill9-smoke

echo "== benchmark smoke =="
# Catches a service API or /metrics change that breaks the benchmark's
# build or its answer checks. perfbench exits 0 even when its checks fail,
# so the verdict is read from its result line.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for run in "schema_churn 31" "warm_complete 909373543"; do
  set -- $run
  result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$1" --seed "$2" --seconds 3 --trace 0)"
  if ! grep -q '"correct": true' <<<"$result"; then
    echo "error: perfbench $1 seed $2 answered incorrectly: $result" >&2
    exit 1
  fi
done

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (obs-off) =="
cargo clippy --workspace --all-targets --features ipe/obs-off -- -D warnings

echo "== fmt =="
cargo fmt --check

echo "OK: all checks passed"
