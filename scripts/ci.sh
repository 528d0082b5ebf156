#!/usr/bin/env bash
# The one-command gate: static checks, tier-1 tests, sanitizer and
# resilience suites.
#
# Usage: scripts/ci.sh [--fast]
#   --fast   static checks + tier-1 tests only (the edit-compile loop tier);
#            the full run adds the ASan/UBSan suite, the resilience gate,
#            the perf and QoS gates and the perfbench digest smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

echo "==== static analysis ===="
scripts/check_static.sh

echo "==== tier-1 tests (default preset) ===="
# Warnings are errors here, so a new one fails CI.
cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build --preset default -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ $fast -eq 1 ]]; then
  echo "ci --fast passed"
  exit 0
fi

echo "==== observability gate ===="
# A full scripted scenario must produce a schema-valid Chrome trace with
# events from at least five subsystems.
build/examples/trace_demo --out build/ci_trace_demo.json \
  --metrics-out build/ci_trace_demo_metrics.csv >/dev/null
python3 tools/check_trace.py build/ci_trace_demo.json \
  --min-subsystems 5 --monotone-ts
# The paper-parity bench grows --trace-out; its trace must validate too.
build/bench/bench_table4_experiment_a --trace-out build/ci_table4.json \
  > build/ci_table4_traced.out 2>/dev/null
python3 tools/check_trace.py build/ci_table4.json --monotone-ts
# Tracing must be observe-only: the bench's stdout stays byte-identical
# with and without it, and two traced runs produce byte-identical traces.
build/bench/bench_table4_experiment_a > build/ci_table4_plain.out
cmp build/ci_table4_traced.out build/ci_table4_plain.out
build/bench/bench_table4_experiment_a --trace-out build/ci_table4_rerun.json \
  >/dev/null 2>&1
cmp build/ci_table4.json build/ci_table4_rerun.json
echo "observability gate passed"

echo "==== observability gate (telemetry v2) ===="
# The QoS storm bench with the full v2 stack on — series sampler, SLO
# burn-rate monitors, flight recorder — must emit schema-valid artefacts:
# a series export, at least one black box (the storm trips the SLOs), and
# a trace whose slo track carries breach instants.
rm -f build/ci_flight_[0-9]*.json
build/bench/bench_qos --smoke --qos-gate \
  --series-out build/ci_series.json \
  --flight-out build/ci_flight_ \
  --trace-out build/ci_qos_trace.json > build/ci_qos_v2.out
python3 tools/check_trace.py build/ci_series.json --kind series
python3 tools/check_trace.py build/ci_flight_0.json --kind flight
python3 tools/check_trace.py build/ci_qos_trace.json --require-slo
# Telemetry v2 is observe-only and deterministic: the bench's stdout stays
# byte-identical with v2 off, and a double run reproduces every artefact
# byte for byte.
build/bench/bench_qos --smoke --qos-gate > build/ci_qos_plain.out
cmp build/ci_qos_v2.out build/ci_qos_plain.out
mv build/ci_series.json build/ci_series_first.json
mv build/ci_flight_0.json build/ci_flight_first.json
rm -f build/ci_flight_[0-9]*.json
build/bench/bench_qos --smoke --qos-gate \
  --series-out build/ci_series.json \
  --flight-out build/ci_flight_ >/dev/null
cmp build/ci_series_first.json build/ci_series.json
cmp build/ci_flight_first.json build/ci_flight_0.json
echo "observability gate (telemetry v2) passed"

echo "==== sanitizers (ASan + UBSan) ===="
scripts/check_sanitizers.sh

echo "==== resilience gate ===="
scripts/check_resilience.sh

echo "==== perf gate (fluid allocator) ===="
# >=5x reallocation / >=10x SNMP-sweep speedup at 10k flows, bit-identical
# to the reference filler; emits the machine-readable BENCH_fluid.json.
build/bench/bench_fluid_alloc --out build/BENCH_fluid.json

echo "==== perf gate (VRA cache) ===="
# The long-lived VRA must return bit-for-bit the decisions of a fresh Vra
# per request, and be >=5x faster in steady state on a 132-link backbone.
build/bench/bench_vra_incremental

echo "==== perf gate (session store) ===="
# >=5x ns/event over the pre-PR never-erased std::map store at 100k
# concurrent sessions and flat resident memory across real-service churn
# waves; emits BENCH_scale.json.
build/bench/bench_scale --scale-gate --out build/BENCH_scale.json

echo "==== qos gate (tiered classes under storm) ===="
# Seeded fault storm at >=90% bottleneck utilization: premium availability
# and p99 stall must beat or match the single-class baseline while the
# background class absorbs its floor share of the shed; emits
# BENCH_qos.json.
build/bench/bench_qos --qos-gate --out build/BENCH_qos.json

echo "==== perfbench digest smoke ===="
# The end-to-end VodService bench must keep its outcome digests on every
# workload, for seeds 1 and 7: a change to the event order, transfer
# progress or any policy decision moves them.  Rounding slips at the
# transfer done line are seed-specific, so two seeds pin them.  A deliberate
# model change re-pins them here.
declare -A expected_digest=(
  [backbone/1]=31c7a5ea5c1601e6
  [home_local/1]=13487cafa23084f1
  [storm_qos/1]=3288fceb843685ce
  [backbone/7]=4d936205f000cbc7
  [home_local/7]=7647d61adad3b318
  [storm_qos/7]=edcb02d7cc985583
)
for seed in 1 7; do
  for workload in backbone home_local storm_qos; do
    want=${expected_digest[$workload/$seed]}
    out=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds 2 --trace 0)
    seen=$(grep -o 'digest=[0-9a-f]*' <<<"$out" | sort -u)
    if [[ "$seen" != "digest=${want}" ]]; then
      echo "perfbench $workload seed $seed: got '${seen}'," \
        "expected digest=${want}" >&2
      exit 1
    fi
  done
done
# The fluid fill runs only when its inputs changed (DESIGN.md §10): a lost
# skip shows up as more progressive fillings on the traced seed-1 runs.
# Every transfer completes at its first wake-up (integer lane progress,
# DESIGN.md §10): a missed one shows up as more simulation events.
declare -A expected_fills=(
  [backbone]=17530
  [home_local]=0
  [storm_qos]=17479
)
declare -A expected_events=(
  [backbone]=96168
  [home_local]=144008
  [storm_qos]=87950
)
for workload in backbone home_local storm_qos; do
  counts=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2 --trace 1 | tail -n 1 | python3 -c \
    'import json, sys
metrics = json.load(sys.stdin)["metrics"]
print(int(metrics["fluid.reallocations"]["value"]),
      int(metrics["sim.events"]["value"]))')
  read -r fills events <<<"$counts"
  if [[ "$fills" != "${expected_fills[$workload]}" ]]; then
    echo "perfbench $workload: fluid.reallocations ${fills}," \
      "expected ${expected_fills[$workload]}" >&2
    exit 1
  fi
  if [[ "$events" != "${expected_events[$workload]}" ]]; then
    echo "perfbench $workload: sim.events ${events}," \
      "expected ${expected_events[$workload]}" >&2
    exit 1
  fi
done
echo "perfbench digest smoke passed"

echo "==== source size ===="
scripts/src_lines.sh
scripts/option_count.sh

echo "ci passed"
