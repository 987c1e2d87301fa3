#!/usr/bin/env bash
# End-to-end smoke test of `ssjoin serve`: boots the service on an
# ephemeral port, drives a scripted insert/query/remove/shutdown session
# through `ssjoin query`, and demands byte-exact response lines.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${SSJOIN_BIN:-target/debug/ssjoin}
if [[ ! -x "$BIN" ]]; then
  cargo build -q -p ssj-cli --bin ssjoin
fi

log=$(mktemp)
pid=""
cleanup() {
  [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
  rm -f "$log"
}
trap cleanup EXIT

# Port 0 → the kernel picks a free port; the server prints the bound
# address on stderr.
"$BIN" serve --addr 127.0.0.1:0 --threshold 0.8 --shards 2 2>"$log" &
pid=$!

addr=""
for _ in $(seq 100); do
  addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$log")
  [[ -n "$addr" ]] && break
  sleep 0.05
done
[[ -n "$addr" ]] || { echo "serve_smoke: server never reported its address"; exit 1; }

expect() {
  local expected=$1; shift
  local got
  got=$("$BIN" query --addr "$addr" "$@")
  if [[ "$got" != "$expected" ]]; then
    echo "serve_smoke: for 'query $*'"
    echo "  expected: $expected"
    echo "  got:      $got"
    exit 1
  fi
}

# {1..5} lands on a deterministic shard (content hash, seed 42); with two
# shards its stable external id is local·2+shard.
expect '{"ok":true,"op":"insert","id":1,"seq":0}' --set 1,2,3,4,5 --op insert
# Js({1..5},{1..6}) = 5/6 ≥ 0.8 → found.
expect '{"ok":true,"op":"query","ids":[1],"seen_seq":1,"probed":1}' --set 1,2,3,4,5,6
# Disjoint probe → nothing shares a signature.
expect '{"ok":true,"op":"query","ids":[],"seen_seq":1,"probed":0}' --set 7,8,9
# Remove, then the same probe comes back empty.
expect '{"ok":true,"op":"remove","found":true,"seq":1}' --remove 1
expect '{"ok":true,"op":"remove","found":false,"seq":2}' --remove 1
expect '{"ok":true,"op":"query","ids":[],"seen_seq":3,"probed":0}' --set 1,2,3,4,5,6
expect '{"ok":true,"op":"shutdown"}' --shutdown

wait "$pid"
echo "serve_smoke: OK"
