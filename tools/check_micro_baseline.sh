#!/usr/bin/env bash
# Gate a fresh bench_micro_sim run against the frozen post-optimization
# baseline (bench/baselines/micro_sim_post.json).
#
# Absolute nanoseconds do not transfer between machines, so the gate is
# relative: each row's ratio (fresh cpu_time / frozen cpu_time) is divided
# by the MEDIAN ratio across all rows — the machine-speed factor — and a
# row fails only when its normalized ratio exceeds 1.10, i.e. it regressed
# >10% relative to the suite as a whole. A uniformly slower CI runner
# cancels out; a single kernel silently losing its vector path (the
# realistic regression: a dispatch or twin-selection bug) sticks out
# against the median and fails the job.
#
# Usage: check_micro_baseline.sh <fresh.json> [baseline.json]
set -euo pipefail

FRESH="${1:?usage: check_micro_baseline.sh <fresh.json> [baseline.json]}"
BASE="${2:-$(dirname "$0")/../bench/baselines/micro_sim_post.json}"

# The frozen baseline must come from a Release library build — a debug
# capture would make every fresh run look implausibly fast and mask real
# regressions.
BASE_BT=$(jq -r '.context.dime_library_build_type // "unknown"' "$BASE")
if [ "$BASE_BT" != "release" ]; then
  echo "check_micro_baseline: baseline $BASE is a '$BASE_BT' capture;" \
    "re-freeze it from a Release build" >&2
  exit 2
fi

REPORT=$(jq -rn --slurpfile fresh "$FRESH" --slurpfile base "$BASE" '
  def rows(f): [f.benchmarks[]
                | select(.run_type != "aggregate")
                | {key: .name, value: .cpu_time}] | from_entries;
  rows($fresh[0]) as $f
  | rows($base[0]) as $b
  | [$b | keys_unsorted[] | select($f[.] != null)
     | {name: ., ratio: ($f[.] / $b[.])}] as $p
  | if ($p | length) == 0 then
      "NOROWS"
    else
      ($p | map(.ratio) | sort | .[(length - 1) / 2 | floor]) as $m
      | $p[]
      | select(.ratio > $m * 1.10)
      | "REGRESSION \(.name): +\(((.ratio / $m - 1) * 100) | round)% vs " +
        "frozen baseline (machine factor \(($m * 100) | round)%)"
    end')

if [ "$REPORT" = "NOROWS" ]; then
  echo "check_micro_baseline: no overlapping rows between $FRESH and $BASE" >&2
  exit 2
fi
if [ -n "$REPORT" ]; then
  echo "$REPORT"
  echo "check_micro_baseline: FAIL"
  exit 1
fi
echo "check_micro_baseline: all rows within 10% of the frozen baseline"
