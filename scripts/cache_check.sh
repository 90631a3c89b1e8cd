#!/usr/bin/env bash
# Cache-reuse and shard-merge gate (CI `cache-reuse` job; DESIGN.md §9).
#
# 1. Cold/warm check: run the figure smoke twice against a fresh cache dir.
#    The cold run must compute every point; the warm run must be 100% cache
#    hits with zero simulation work, and its stdout must be byte-identical.
# 2. Corrupt-cache check: damage the warm fig12 cache two ways -- append a
#    line nested 1,000,000 arrays deep, and mangle one record's number
#    ("39.05" -> "3-9.05") -- then re-run. The run must exit 0, recompute
#    exactly the mangled point, and print output byte-identical to the cold
#    run: a hostile record is a miss, never a crash or a misread value.
# 3. Shard-merge check: run fig12 as 2 shards into a second fresh cache dir,
#    render it with a plain `--run fig12` over that cache, and require that
#    run to recompute nothing and to print output byte-identical to a serial
#    --no-cache run.
#
# Expects an already-built tree (build/bench/mixnet-bench). Exits non-zero
# with a diagnostic on the first violated invariant.
set -euo pipefail

cd "$(dirname "$0")/.."
bench=./build/bench/mixnet-bench
[ -x "$bench" ] || { echo "cache_check.sh: $bench not built" >&2; exit 2; }

benches=${MIXNET_SMOKE_BENCHES-"fig12 fig13"}
jobs=${MIXNET_SMOKE_JOBS-$(nproc)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

stat_field() {  # stat_field FILE FIELD -> first value of "FIELD":N
  grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2
}

for b in $benches; do
  cache="$work/cache-$b"
  echo "== cache-reuse: $b =="
  "$bench" --run "$b" --jobs "$jobs" --cache "$cache" \
    --stats "$work/cold.json" > "$work/cold-$b.txt"
  "$bench" --run "$b" --jobs "$jobs" --cache "$cache" \
    --stats "$work/warm.json" > "$work/warm.txt"

  cold_computed=$(stat_field "$work/cold.json" computed)
  warm_computed=$(stat_field "$work/warm.json" computed)
  warm_hits=$(stat_field "$work/warm.json" hits)
  warm_points=$(stat_field "$work/warm.json" points)
  echo "   cold computed=$cold_computed  warm hits=$warm_hits/$warm_points"

  [ "$cold_computed" -gt 0 ] || {
    echo "FAIL: cold run of $b computed nothing (stale cache?)" >&2; exit 1; }
  [ "$warm_computed" -eq 0 ] || {
    echo "FAIL: warm run of $b recomputed $warm_computed point(s)" >&2; exit 1; }
  [ "$warm_hits" -eq "$warm_points" ] || {
    echo "FAIL: warm run of $b hit $warm_hits of $warm_points points" >&2; exit 1; }
  cmp -s "$work/cold-$b.txt" "$work/warm.txt" || {
    echo "FAIL: warm output of $b differs from cold output" >&2
    diff "$work/cold-$b.txt" "$work/warm.txt" >&2 || true; exit 1; }
done

echo "== corrupt-cache: fig12 =="
cache="$work/cache-fig12"
[ -f "$work/cold-fig12.txt" ] ||  # fig12 left out of the smoke list
  "$bench" --run fig12 --jobs "$jobs" --cache "$cache" > "$work/cold-fig12.txt"
head -c 1000000 /dev/zero | tr '\0' '[' >> "$cache/fig12.jsonl"
echo >> "$cache/fig12.jsonl"
sed -i '1s/"iter_sec":\([0-9]\)/"iter_sec":\1-/' "$cache/fig12.jsonl"
rc=0
"$bench" --run fig12 --jobs "$jobs" --cache "$cache" \
  --stats "$work/corrupt.json" > "$work/corrupt.txt" || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: fig12 over a corrupted cache exited $rc" >&2; exit 1; }
corrupt_computed=$(stat_field "$work/corrupt.json" computed)
echo "   corrupted cache: computed=$corrupt_computed"
[ "$corrupt_computed" -eq 1 ] || {
  echo "FAIL: corrupted cache recomputed $corrupt_computed point(s), want 1" >&2
  exit 1; }
cmp -s "$work/cold-fig12.txt" "$work/corrupt.txt" || {
  echo "FAIL: fig12 output over a corrupted cache differs from cold output" >&2
  diff "$work/cold-fig12.txt" "$work/corrupt.txt" >&2 || true; exit 1; }

echo "== shard-merge: fig12 (2 shards) =="
shard_cache="$work/cache-shard"
"$bench" --run fig12 --jobs "$jobs" --shard 0/2 --cache "$shard_cache" > "$work/s0.txt"
"$bench" --run fig12 --jobs "$jobs" --shard 1/2 --cache "$shard_cache" > "$work/s1.txt"
[ ! -s "$work/s0.txt" ] && [ ! -s "$work/s1.txt" ] || {
  echo "FAIL: shard runs must not render tables to stdout" >&2; exit 1; }
"$bench" --run fig12 --cache "$shard_cache" \
  --stats "$work/merge.json" > "$work/merged.txt"
merge_computed=$(stat_field "$work/merge.json" computed)
[ "$merge_computed" -eq 0 ] || {
  echo "FAIL: merge recomputed $merge_computed point(s); shards incomplete" >&2
  exit 1; }
"$bench" --run fig12 --jobs "$jobs" --no-cache > "$work/serial.txt"
cmp -s "$work/serial.txt" "$work/merged.txt" || {
  echo "FAIL: 2-shard merged fig12 differs from serial run" >&2
  diff "$work/serial.txt" "$work/merged.txt" >&2 || true; exit 1; }
echo "   merged output byte-identical to serial"

echo "cache_check.sh: all invariants hold"
