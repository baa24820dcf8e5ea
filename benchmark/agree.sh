#!/usr/bin/env bash
# Runs the whole benchmark twice on the checked-out commit and fails if any
# end-to-end metric of the second run is further from the first than that
# metric's bound in BENCHMARK.json. A run at --seed 7 only has to pass
# its output checks (counts and checksums depend on the seed, timings are not
# compared across seeds). Run from the repository root:
#
#   bash benchmark/agree.sh [seconds]
#
# Takes about 3 x 4 workloads x 2 passes x (seconds + set-up), ~10 min at the
# default (run_seconds of BENCHMARK.json). The tables it prints are the ones
# pasted into benchmark/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."
seconds=()
if [ $# -ge 1 ]; then seconds=(--seconds "$1"); fi
out=benchmark/out
mkdir -p "$out"

run() {
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

# The seed-7 run goes first, so the detail files left in benchmark/out are
# those of a default-seed run.
echo "## run 0 (seed 7, output checks only)"
run all --seed 7 ${seconds[@]+"${seconds[@]}"} --out "$out/agree-seed7.jsonl" | grep -E '^(# workload|! FAILED|# [0-9]+ result)' || true
echo "## run 1 (seed 20190326)"
run all ${seconds[@]+"${seconds[@]}"} --out "$out/agree-1.jsonl" | grep -E '^(# workload|! FAILED|# [0-9]+ result)' || true
echo "## run 2 (seed 20190326)"
run all ${seconds[@]+"${seconds[@]}"} --out "$out/agree-2.jsonl" | grep -E '^(# workload|! FAILED|# [0-9]+ result)' || true

for f in agree-1 agree-2 agree-seed7; do
  lines=$(wc -l < "$out/$f.jsonl")
  if [ "$lines" -ne 8 ]; then
    echo "agree.sh: $f has $lines of 8 result lines (a workload failed its checks)" >&2
    exit 1
  fi
done

echo "## agreement of run 2 with run 1"
run agree "$out/agree-1.jsonl" "$out/agree-2.jsonl"
