#!/usr/bin/env bash
# Audit determinism gate: audit one generated promotion table with
# every suite section on (strata, proxies, subgroups, sampling,
# four-fifths), serially and at four threads over 977-row chunks, and
# require both JSON reports to equal the golden file byte for byte. A
# second leg streams the same CSV out-of-core (metrics and strata only)
# at the same two settings and compares both envelopes with the stream
# golden. Driven by ctest (tools_audit_identity, with
# tests/golden/audit_suite.json and tests/golden/audit_stream.json).
#
# Usage: audit_identity.sh <fairlaw_generate> <fairlaw_audit> <workdir>
#                          <golden> <stream_golden>
set -euo pipefail

gen="$1"
audit="$2"
dir="$3"
golden="$4"
stream_golden="$5"

mkdir -p "$dir"
"$gen" promotion --n=4000 --out="$dir/promotion.csv"

# Exit code 2 means violations were found, which this table has; only
# 1 (an error) fails the gate before the byte comparison.
run() {
  local out="$1"
  shift
  local rc=0
  "$audit" "$dir/promotion.csv" --protected=gender --pred=promoted \
      --label=merit --strata=race --json "$@" >"$out" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    echo "fairlaw_audit $* exited $rc" >&2
    exit 1
  fi
}

suite=(--proxies=performance,tenure,race --subgroups=gender,race)
run "$dir/suite_t1.json" "${suite[@]}" --threads=1
run "$dir/suite_t4.json" "${suite[@]}" --threads=4 --chunk-rows=977
run "$dir/stream_t1.json" --streaming --threads=1
run "$dir/stream_t4.json" --streaming --threads=4 --chunk-rows=977

cmp "$golden" "$dir/suite_t1.json"
cmp "$golden" "$dir/suite_t4.json"
cmp "$stream_golden" "$dir/stream_t1.json"
cmp "$stream_golden" "$dir/stream_t4.json"
echo "audit identity ok: both runs equal $golden," \
    "both streamed runs equal $stream_golden"
