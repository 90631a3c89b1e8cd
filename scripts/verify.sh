#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full CTest suite, then run the
# figure smoke through the mixnet-bench scenario runner so perf regressions
# on the phase-simulation hot path show up in CI output AND in a
# machine-readable perf trajectory (BENCH_verify.json at the repo root).
# Exits non-zero on the first failing step — including a bench binary that
# crashes or a registered paper-shape check that fails (`mixnet-bench
# --check` exits 3 on violations) — so the CI figures-smoke job can gate on
# this script directly.
set -euo pipefail

usage() {
  cat <<EOF
Usage: scripts/verify.sh [--jobs N] [--quick] [--lint] [--help]

  --jobs N   worker threads for build, ctest, and the smoke sweep points
             (default: nproc)
  --quick    skip the CTest suite and run only the figures smoke; for fast
             perf iteration — the tier-1 gate is the full run
  --lint     run the full static-analysis gate too: scripts/lint.sh
             (mixnet-lint + clang-tidy when available) before the build,
             and the tests labelled tsan under the tsan presets after
             CTest — the whole DESIGN.md §10 gate with one command
  --help     this text

Environment overrides (kept for CI matrix use):
  MIXNET_SMOKE_BENCHES   space-separated scenario names (default "fig12
                         fig13 serve-storm fidelity-ladder fig26-xl fig26";
                         empty skips the smoke entirely)
  MIXNET_SMOKE_JOBS      smoke worker count (overrides --jobs for the smoke)
EOF
}

jobs=$(nproc)
quick=0
lint=0
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) shift; jobs=${1:?--jobs needs a value} ;;
    --jobs=*) jobs=${1#--jobs=} ;;
    --quick) quick=1 ;;
    --lint) lint=1 ;;
    --help|-h) usage; exit 0 ;;
    *) echo "verify.sh: unknown argument '$1'" >&2; usage >&2; exit 2 ;;
  esac
  shift
done

cd "$(dirname "$0")/.."

if [ "$lint" -eq 1 ]; then
  ./scripts/lint.sh --jobs "$jobs"
fi

cmake -B build -S .
if [ "$quick" -eq 0 ]; then
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")
fi

if [ "$lint" -eq 1 ]; then
  # Race-detector pass over the suites labelled tsan in tests/CMakeLists.txt
  # (DESIGN.md §10): the threaded sweep engine, the packet engine on sweep
  # worker threads (DESIGN.md §12) and the SoA FlowSim tables (DESIGN.md
  # §13).
  echo "== tsan: tests labelled tsan =="
  cmake --preset tsan > /dev/null
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan -j "$jobs"
fi

# Figure-bench smoke: the two scenarios that stress the phase-simulation
# path hardest (fig12/fig13 sweep full training iterations over every
# fabric), the serving ablation (serve-storm drives the open-loop
# ServeSimulator and its re-placement control loop end to end), and the
# fidelity ladder (fidelity-ladder runs one workload on all three network
# backends and machine-gates their agreement, DESIGN.md §12), and the
# analytic-core scaling sweep (fig26-xl gates the explicit-vs-analytic
# equivalence and the throughput monotonicity up to 131072 GPUs,
# DESIGN.md §13), and Figure 26 itself (fig26 gates the fat-tree, MixNet
# and rail-optimized columns' linear scaling and perf/$ up to 32k GPUs),
# executed by `mixnet-bench --run <scenario> --jobs N --check` so sweep
# points use the requested cores and the registered paper-shape checks
# (ScenarioInfo::check, see EXPERIMENTS.md) gate the run. In --quick mode
# only the mixnet-bench target is built (the test suites are never run).
cmake --build build -j "$jobs" -t mixnet-bench
smoke_benches=${MIXNET_SMOKE_BENCHES-"fig12 fig13 serve-storm fidelity-ladder fig26-xl fig26"}
smoke_jobs=${MIXNET_SMOKE_JOBS-$jobs}
total_ns=0
bench_json=""
stats_tmp=$(mktemp)
trap 'rm -f "$stats_tmp"' EXIT
for b in $smoke_benches; do
  start=$(date +%s%N)
  ./build/bench/mixnet-bench --run "$b" --jobs "$smoke_jobs" --check \
      --stats "$stats_tmp" > /dev/null || {
    status=$?
    echo "verify.sh: mixnet-bench --run $b failed (exit $status)" >&2
    exit "$status"
  }
  end=$(date +%s%N)
  dur=$((end - start))
  total_ns=$((total_ns + dur))
  # Result-cache counters for this scenario (DESIGN.md §9): a warm cache
  # makes the smoke near-instant, so the perf trajectory records hit/miss
  # counts alongside wall time to keep the numbers interpretable.
  hits=$(grep -o '"hits":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  computed=$(grep -o '"computed":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  points=$(grep -o '"points":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  # Gate traces built (DESIGN.md §7): one per distinct gate key among the
  # computed training points, 0 on a warm cache.
  traces=$(grep -o '"gate_traces":[0-9]*' "$stats_tmp" | head -1 | cut -d: -f2)
  awk -v d="$dur" -v n="$b" -v h="${hits:-0}" -v c="${computed:-0}" \
      -v g="${traces:-0}" \
    'BEGIN{printf "smoke %-28s %8.2f s  (cache: %d hits, %d computed; %d gate traces)\n", n, d/1e9, h, c, g}'
  entry=$(awk -v d="$dur" -v n="$b" -v h="${hits:-0}" -v c="${computed:-0}" \
      -v p="${points:-0}" -v g="${traces:-0}" \
    'BEGIN{printf "{\"name\":\"%s\",\"seconds\":%.3f,\"cache\":{\"points\":%d,\"hits\":%d,\"computed\":%d},\"gate_traces\":%d}", n, d/1e9, p, h, c, g}')
  bench_json="${bench_json:+$bench_json,}$entry"
done
awk -v d="$total_ns" 'BEGIN{printf "smoke total bench wall time    %8.2f s\n", d/1e9}'

# Perf trajectory: one JSON object per verify run, overwritten in place so
# CI can archive/diff it across commits (the committed reference lives at
# bench/figures_smoke_baseline.json; the CI smoke job fails on >20%
# regression against it).
awk -v benches="$bench_json" -v total="$total_ns" -v jobs="$smoke_jobs" 'BEGIN{
  printf "{\"suite\":\"figures-smoke\",\"jobs\":%d,\"benches\":[%s],", jobs, benches
  printf "\"total_seconds\":%.3f}\n", total/1e9
}' > BENCH_verify.json
echo "wrote BENCH_verify.json"
