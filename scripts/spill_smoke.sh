#!/usr/bin/env bash
# End-to-end smoke test of `ssjoin --mem-budget`: the out-of-core join
# must actually spill (>= 2 partitions under a tight budget), keep its
# bitmap filter and its accounted peak within the budget, and its output
# must be byte-identical to the in-memory join on the same input.
set -euo pipefail
cd "$(dirname "$0")/.."

# Rebuild unless a binary is given: a stale one would miss stats fields.
if [[ -z "${SSJOIN_BIN:-}" ]]; then
  cargo build -q -p ssj-cli --bin ssjoin
fi
BIN=${SSJOIN_BIN:-target/debug/ssjoin}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# 2000 sets of 10 word tokens in 400 near-duplicate groups: members of a
# group share a 10-token core and later members append one extra token,
# so within-group jaccard is 10/11 >= 0.8 and the join output is dense
# enough to exercise every partition.
awk 'BEGIN {
  for (i = 0; i < 2000; i++) {
    base = i % 400
    line = ""
    for (t = 0; t < 10; t++) line = line " tok" (base * 6 + t)
    if (i >= 400) line = line " extra" i
    print substr(line, 2)
  }
}' > "$work/input.txt"

"$BIN" jaccard --input "$work/input.txt" --threshold 0.8 \
  --output "$work/mem.txt"
"$BIN" jaccard --input "$work/input.txt" --threshold 0.8 \
  --mem-budget 512k --stats --output "$work/ext.txt" 2> "$work/stats.txt"

if ! cmp -s "$work/mem.txt" "$work/ext.txt"; then
  echo "spill_smoke: in-memory and --mem-budget outputs differ"
  diff "$work/mem.txt" "$work/ext.txt" | head -20
  exit 1
fi

parts=$(grep -o 'partitions=[0-9]*' "$work/stats.txt" | cut -d= -f2)
if [[ -z "$parts" || "$parts" -lt 2 ]]; then
  echo "spill_smoke: expected >= 2 partitions under a 512k budget, got '${parts:-none}'"
  cat "$work/stats.txt"
  exit 1
fi

if ! grep -q 'bitmap_degraded=false' "$work/stats.txt"; then
  echo "spill_smoke: the bitmap filter degraded (or the stats line lost its flag)"
  cat "$work/stats.txt"
  exit 1
fi

budget=$(grep -o 'mem_budget=[0-9]*' "$work/stats.txt" | cut -d= -f2)
peak=$(grep -o 'peak_bytes=[0-9]*' "$work/stats.txt" | cut -d= -f2)
if [[ -z "$budget" || -z "$peak" || "$peak" -gt "$budget" ]]; then
  echo "spill_smoke: expected peak_bytes <= mem_budget, got '${peak:-none}' > '${budget:-none}'"
  cat "$work/stats.txt"
  exit 1
fi

pairs=$(wc -l < "$work/mem.txt")
if [[ "$pairs" -lt 1 ]]; then
  echo "spill_smoke: join produced no pairs; the workload is broken"
  exit 1
fi

echo "spill_smoke: OK ($pairs pairs, $parts partitions, peak $peak <= $budget bytes, outputs byte-identical)"
