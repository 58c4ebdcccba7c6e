#!/bin/sh
# Regenerate every table and figure of the paper (see DESIGN.md section 3).
# Results land in results/*.txt, with machine-readable JSON solve reports
# beside them as results/*.json (via GRAPHENE_REPORT; see DESIGN.md §8).
# Flags can be appended per-binary, e.g. `--scale 1.0` inside this script.
set -e
cd "$(dirname "$0")"
mkdir -p results
# Every binary writes its JSON report to results/<bin>.json.
GRAPHENE_REPORT="${GRAPHENE_REPORT:-results}"
export GRAPHENE_REPORT
run() { echo ">>> $1" >&2; shift; cargo run --release -q -p graphene-bench --bin "$@"; }
run "Table I"    table1                    | tee results/table1.txt
run "Tables II/III" tables23               | tee results/tables23.txt
run "Fig 5"      fig5                      | tee results/fig5.txt
run "Fig 6"      fig6                      | tee results/fig6.txt
# fig7 also writes per-backend artifacts results/fig7.<backend>.json
# (ipu-sim / cpu / gpu-model) beside the combined document.
run "Fig 7"      fig7                      | tee results/fig7.txt
run "Fig 8"      fig8                      | tee results/fig8.txt
run "Fig 9"      fig9                      | tee results/fig9.txt
run "Fig 10"     fig10                     | tee results/fig10.txt
run "Table IV"   table4                    | tee results/table4.txt
run "Ablations"  ablations                 | tee results/ablations.txt
run "Resilience" resilience                | tee results/resilience.txt
# Serving layer: throughput first, then the chaos gate (seeded storm +
# panic/poison/deadline jobs, double-run determinism, zero SDC escapes).
run "Serve (throughput)" serve             | tee results/serve.txt
run "Serve (chaos)" serve -- --chaos --out results/serve_chaos.json | tee results/serve_chaos.txt
run "Perf attribution" perf_attrib         | tee results/perf_attrib.txt
run "Fused kernels" native_speedup         | tee results/native_speedup.txt
# Auto-tuner gate: cold search populates results/tune-cache, the second
# invocation must hit it and reproduce the solve bit for bit.
rm -rf results/tune-cache
run "Auto-tune (cold)" tune_cache -- --cache results/tune-cache | tee results/tune_cache.txt
run "Auto-tune (hit)"  tune_cache -- --cache results/tune-cache --expect-hit | tee -a results/tune_cache.txt
# Aggregate every results/*.json artifact written above into
# results/summary.json + a markdown table at results/summary.md.
run "Summary"    summarize                 | tee results/summary.txt
echo "all experiments done"
