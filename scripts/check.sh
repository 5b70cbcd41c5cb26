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

echo "== service e2e =="
# Figure-2 answers and a cache hit over HTTP, /metrics cache counts, and
# the real `ipe serve` binary answering and exiting cleanly on
# POST /v1/shutdown.
cargo test -q -p ipe-service --test server -- complete_ta_name_and_cache_hit metrics_reflect_cache_traffic
cargo test -q --test cli_args report_flag_composes_with_serve

echo "== reactor partial-I/O edges =="
# Slow-loris heads, split request lines, write backpressure, mid-body
# deadline expiry, a 64-connection burst — the front end's worst-case
# socket behaviour.
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

echo "== batch deadlines =="
# Deadline-bound items fail alone, at 1 and 2 worker threads and per item
# over HTTP.
cargo test -q -p ipe-core --lib batch::
cargo test -q -p ipe-service --test server batch_deadline_is_per_item

echo "== index smoke =="
./target/release/index_bench --smoke

echo "== query semantics =="
# certain ⊆ possible, certain antitone and possible monotone in E, and
# re-evaluated completions answer as the full query does.
cargo test -q -p ipe-query --test query_props
cargo test -q -p ipe-service --test query_e2e gen_data_e_sweep_is_monotone

echo "== store recovery =="
# Compaction, torn tails after a snapshot, and the durable prefix at every
# byte boundary of the last record.
cargo test -q -p ipe-store --lib store::
cargo test -q -p ipe-store --test recovery

echo "== WAL v1 -> v2 migration =="
cargo test -q -p ipe-store --test migration

echo "== crash drills =="
# SIGKILL the real binary under fsync'd PUT traffic, and a durable
# follower after it caught up; restart both on their data directories.
cargo test -q --test crash_drills

echo "== replication =="
cargo test -q -p ipe-service --test repl_e2e -- two_followers_converge_and_serve_reads \
  follower_refuses_schema_writes_with_leader_address

echo "== tenants =="
cargo test -q -p ipe-service --test tenant_e2e -- tenant_namespaces_isolate_schemas_and_data \
  retry_envelopes_are_machine_readable tenant_delete_purges_namespace_durably

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

echo "== rustdoc =="
# Broken or private intra-doc links fail the gate. The vendored crates
# are excluded: they stand in for published ones and are not documented
# here (proptest's shim also has an ambiguous `vec` link).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
  --exclude proptest --exclude rand --exclude rand_chacha \
  --exclude serde --exclude serde_derive --exclude serde_json

echo "OK: all checks passed"
