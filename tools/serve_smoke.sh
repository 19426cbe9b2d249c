#!/usr/bin/env bash
# Serve determinism smoke: replay one generated event stream at two
# ingest batch sizes and several thread counts, with obs probes on and
# off (FAIRLAW_OBS=off); every '"op":"query"' response line must be
# byte-identical (ingest acks and stats dumps legitimately vary and are
# filtered out). With a fifth argument, the responses must also equal
# that golden file byte for byte, which pins them across versions, not
# just across runs of one build. Driven by ctest (tools_serve_identity,
# with tests/golden/serve_queries.jsonl at n=4000) and by the CI serve
# job with a larger --n and no golden.
#
# Usage: serve_smoke.sh <fairlaw_generate> <fairlaw_serve> <n> <workdir>
#                       [golden]
set -euo pipefail

gen="$1"
serve="$2"
n="$3"
dir="$4"
golden="${5:-}"

mkdir -p "$dir"
query_every=$((n / 4))

# Same seed, different batching: the event sequence and the query
# positions (after every query_every events) are identical by
# construction; only the ingest line boundaries differ.
"$gen" events --events-jsonl --n="$n" --batch=64 \
    --query-every="$query_every" --with-strata --out="$dir/stream_a.jsonl"
"$gen" events --events-jsonl --n="$n" --batch=977 \
    --query-every="$query_every" --with-strata --out="$dir/stream_b.jsonl"

"$serve" --with-strata <"$dir/stream_a.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch64.jsonl"
"$serve" --with-strata --threads=4 <"$dir/stream_b.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch977_t4.jsonl"
"$serve" --with-strata --threads=0 <"$dir/stream_a.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch64_t0.jsonl"
FAIRLAW_OBS=off "$serve" --with-strata --threads=4 <"$dir/stream_b.jsonl" \
    | grep '"op":"query"' >"$dir/resp_batch977_t4_obs_off.jsonl"

cmp "$dir/resp_batch64.jsonl" "$dir/resp_batch977_t4.jsonl"
cmp "$dir/resp_batch64.jsonl" "$dir/resp_batch64_t0.jsonl"
cmp "$dir/resp_batch64.jsonl" "$dir/resp_batch977_t4_obs_off.jsonl"
if [ -n "$golden" ]; then
  cmp "$golden" "$dir/resp_batch64.jsonl"
fi

count=$(wc -l <"$dir/resp_batch64.jsonl")
if [ "$count" -lt 4 ]; then
  echo "expected at least one full query suite, got $count lines" >&2
  exit 1
fi
echo "serve identity ok: $count query responses byte-identical${golden:+ and equal to $golden}"
