#!/usr/bin/env bash
# Alternating A/B runs of perfbench: a parent revision against the working
# tree.
#
#   scripts/ab.sh <workload> <first-seed> <pairs> [seconds] [parent-rev]
#
# Builds the parent (default: HEAD) from `git archive` and the working tree
# (tracked and untracked, not ignored) in two sibling directories whose
# paths have the same length, `$AB_DIR/base` and `$AB_DIR/head`, because
# code layout alone moves some metrics. Pair i runs seed first-seed+i on
# both sides, parent first when i is even. Every run keeps its stdout and
# stderr under `$AB_DIR/runs/`. A run that prints no result line is
# reported with its exit code and the tail of its stderr, never dropped.
# The summary gives q1 / median / q3 of each end-to-end metric per side,
# the median ratio (change / parent), and the pairs the change won.
#
# Needs: git, cargo (offline), python3. `AB_DIR` defaults to
# `${TMPDIR:-/tmp}/ipe-ab`; it is emptied first.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
workload=$1
first_seed=$2
pairs=$3
seconds=${4:-30}
parent=${5:-HEAD}

repo=$(git rev-parse --show-toplevel)
ab=${AB_DIR:-${TMPDIR:-/tmp}/ipe-ab}
rm -rf "$ab"
mkdir -p "$ab/base" "$ab/head" "$ab/runs"

git -C "$repo" archive "$(git -C "$repo" rev-parse "$parent")" | tar -x -C "$ab/base"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    (cd "$repo" && tar --null -T - -cf - 2>/dev/null) | tar -x -C "$ab/head"

for side in base head; do
    echo "building $side" >&2
    cargo build --release --offline --quiet --manifest-path "$ab/$side/perfbench/Cargo.toml"
done

run() { # side seed -> appends one record to $ab/runs.tsv
    local side=$1 seed=$2
    local out="$ab/runs/$side-$seed" status=0
    (cd "$ab/$side" && ./perfbench/target/release/ipe-perfbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        >"$out.out" 2>"$out.err" || status=$?
    printf '%s\t%s\t%s\t%s\n' "$side" "$seed" "$status" "$out" >>"$ab/runs.tsv"
    echo "$side seed $seed exit $status" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run base "$seed"
        run head "$seed"
    else
        run head "$seed"
        run base "$seed"
    fi
done

python3 - "$ab/runs.tsv" "$workload" "$seconds" "$parent" <<'EOF'
import json, statistics, sys

rows, workload, seconds, parent = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
METRICS = [("setup_s", "lower"), ("throughput_rps", "higher"),
           ("latency_p50_ms", "lower"), ("write_p50_ms", "lower"),
           ("peak_rss_mb", "lower")]
results = {"base": {}, "head": {}}
print(f"workload {workload}, {seconds} s runs, parent {parent} (base) vs working tree (head)")
for line in open(rows):
    side, seed, status, out = line.rstrip("\n").split("\t")
    result = None
    for text in open(out + ".out"):
        if text.startswith("{") and '"metrics"' in text:
            result = json.loads(text)
    if result is None:
        tail = open(out + ".err").read().splitlines()[-5:]
        print(f"NO RESULT: {side} seed {seed} exit {status}; stderr tail:")
        for t in tail:
            print(f"    {t}")
        continue
    if status != "0" or not result["correct"] or result["failed"]:
        print(f"BAD RUN: {side} seed {seed} exit {status} correct {result['correct']} "
              f"failed {result['failed']}")
    results[side][seed] = {k: v["value"] for k, v in result["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

seeds = sorted(set(results["base"]) & set(results["head"]), key=int)
print(f"{len(seeds)} complete pairs; runs: {len(results['base'])} base, {len(results['head'])} head")
print("| metric | parent q1 / median / q3 | change q1 / median / q3 | median ratio | won |")
print("|---|---|---|---|---|")
for name, better in METRICS:
    base = [results["base"][s][name] for s in seeds if name in results["base"][s]]
    head = [results["head"][s][name] for s in seeds if name in results["head"][s]]
    if not base or not head:
        continue
    won = sum(1 for s in seeds
              if (results["head"][s][name] < results["base"][s][name]) == (better == "lower")
              and results["head"][s][name] != results["base"][s][name])
    qb, qh = quartiles(base), quartiles(head)
    fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)
    ratio = qh[1] / qb[1] if qb[1] else float("nan")
    print(f"| `{name}` | {fmt(qb)} | {fmt(qh)} | {ratio:.2f}x | {won}/{len(seeds)} |")
EOF
