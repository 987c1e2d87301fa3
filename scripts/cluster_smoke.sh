#!/usr/bin/env bash
# End-to-end smoke test of `ssjoin cluster`: boots a 2-node in-process
# cluster, drives a scripted insert/query/remove session over the
# scatter-gather router on stdin/stdout, and demands byte-exact routed
# response lines (cluster ids, per-node watermark vector).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${SSJOIN_BIN:-target/debug/ssjoin}
if [[ ! -x "$BIN" ]]; then
  cargo build -q -p ssj-cli --bin ssjoin
fi

got=$(printf '%s\n' \
  '{"op":"insert","set":[1,2,3,4,5]}' \
  '{"op":"insert","set":[7,8,9]}' \
  '{"op":"query","set":[1,2,3,4,5,6]}' \
  '{"op":"remove","id":2}' \
  '{"op":"query","set":[1,2,3,4,5,6]}' \
  '{"op":"stats"}' \
  '{"op":"shutdown"}' \
  | "$BIN" cluster --nodes 2 --threshold 0.8 --shards 2 --seed 42 \
    2>/dev/null)

# Deterministic given --seed 42: {1..5} lands on ring node 0 (node-local
# global id 1 → cluster id 1·2+0 = 2), {7,8,9} on node 1 (cluster id 3).
# The query fans out to both nodes, so `seen` carries one watermark per
# node and advances on the node that served the remove.
expected=$(printf '%s\n' \
  '{"ok":true,"op":"insert","id":2,"node":0,"seq":0}' \
  '{"ok":true,"op":"insert","id":3,"node":1,"seq":0}' \
  '{"ok":true,"op":"query","ids":[2],"seen":[1,1],"probed":1,"replica_answers":0}' \
  '{"ok":true,"op":"remove","found":true,"node":0,"seq":1}' \
  '{"ok":true,"op":"query","ids":[],"seen":[2,1],"probed":0,"replica_answers":0}' \
  '{"ok":false,"error":"bad_request","message":"only insert, query, and remove route at the cluster level"}')

if [[ "$got" != "$expected" ]]; then
  echo "cluster_smoke: routed session diverged"
  diff <(echo "$expected") <(echo "$got") || true
  exit 1
fi
echo "cluster_smoke: OK"
