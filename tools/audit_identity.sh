#!/usr/bin/env bash
# Audit determinism gate: audit one generated promotion table with
# every suite section on (strata, proxies, subgroups, sampling,
# four-fifths) at one and at four threads, and require both JSON reports
# to equal the golden file byte for byte. A second leg streams the same
# CSV out-of-core (metrics and strata only), serially and at four threads
# over 977-row chunks, and compares both envelopes with the stream
# golden. The obs dumps (--obs-json) of the 977-row stream at one and at
# four threads must be identical too: chunks are read, inferred and
# audited on the workers, whose spans nest under the calling thread's
# path. (The dump counts chunks, so it is compared at one chunk size.)
# A large-table leg audits a 60000-row promotion table (four read
# chunks) with a logistic score column added, the whole suite (plus the
# tie-heavy int64 proxy candidate merit) and the score-distribution
# audit on, at one and at four threads: the table is read, the proxy
# candidates are scored and the groups' scores are sorted and compared
# on the pool at four threads, and both the JSON reports and the obs
# dumps must be equal. A wrong-guess leg prints tenure as an integer in
# the first 3000 rows of that table, so both the stream and the table
# read parse every chunk twice; their reports and obs dumps must agree
# across threads. A last leg checks that --chunk-rows without --streaming
# is a flag error (exit 1): an in-memory audit is one chunk. Driven by ctest
# (tools_audit_identity, with tests/golden/audit_suite.json and
# tests/golden/audit_stream.json).
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
run_on() {
  local csv="$1"
  local out="$2"
  shift 2
  local rc=0
  "$audit" "$csv" --protected=gender --pred=promoted \
      --label=merit --strata=race --json "$@" >"$out" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    echo "fairlaw_audit $* exited $rc" >&2
    exit 1
  fi
}
run() { run_on "$dir/promotion.csv" "$@"; }

suite=(--proxies=performance,tenure,race --subgroups=gender,race)
run "$dir/suite_t1.json" "${suite[@]}" --threads=1
run "$dir/suite_t4.json" "${suite[@]}" --threads=4
run "$dir/stream_t1.json" --streaming --threads=1
run "$dir/stream_t4.json" --streaming --threads=4 --chunk-rows=977 \
    --obs-json="$dir/obs_t4.json"
run "$dir/stream_t1_977.json" --streaming --threads=1 --chunk-rows=977 \
    --obs-json="$dir/obs_t1.json"

cmp "$golden" "$dir/suite_t1.json"
cmp "$golden" "$dir/suite_t4.json"
cmp "$stream_golden" "$dir/stream_t1.json"
cmp "$stream_golden" "$dir/stream_t4.json"
cmp "$stream_golden" "$dir/stream_t1_977.json"
cmp "$dir/obs_t1.json" "$dir/obs_t4.json"

"$gen" promotion --n=60000 --out="$dir/large.csv"
awk -F, 'BEGIN { OFS = "," }
  NR == 1 { print $0, "score"; next }
  { printf "%s,%.6f\n", $0, 1 / (1 + exp(-$3)) }' \
    "$dir/large.csv" >"$dir/large_scored.csv"
# merit (0/1 int64) is a tie-heavy numeric proxy candidate: its quantile
# cuts collapse, and its selection and tally run on the pool.
large=(--proxies=performance,tenure,race,merit --subgroups=gender,race
       --score=score --score-dist)
run_on "$dir/large_scored.csv" "$dir/large_t1.json" "${large[@]}" \
    --threads=1 --obs-json="$dir/large_obs_t1.json"
run_on "$dir/large_scored.csv" "$dir/large_t4.json" "${large[@]}" \
    --threads=4 --obs-json="$dir/large_obs_t4.json"
grep -q '"score_distribution"' "$dir/large_t1.json"
cmp "$dir/large_t1.json" "$dir/large_t4.json"
cmp "$dir/large_obs_t1.json" "$dir/large_obs_t4.json"

# A leg whose schema guess is wrong: tenure printed as an integer in the
# first 3000 rows, more than the first read block holds, so the schema
# guessed from that block reads it as int64 until a later chunk shows a
# double, and every chunk is read again. The stream at 977-row chunks
# and the table read must each give equal reports and obs dumps at one
# and four threads, and each dump must count the chunks read again.
awk -F, 'BEGIN { OFS = "," }
  NR > 1 && NR <= 3001 { $4 = sprintf("%d", $4) } { print }' \
    "$dir/large.csv" >"$dir/guess.csv"
for t in 1 4; do
  run_on "$dir/guess.csv" "$dir/guess_stream_t$t.json" --streaming \
      --threads=$t --chunk-rows=977 --obs-json="$dir/guess_stream_obs_t$t.json"
  run_on "$dir/guess.csv" "$dir/guess_table_t$t.json" --proxies=tenure \
      --threads=$t --obs-json="$dir/guess_table_obs_t$t.json"
done
for leg in stream table; do
  cmp "$dir/guess_${leg}_t1.json" "$dir/guess_${leg}_t4.json"
  cmp "$dir/guess_${leg}_obs_t1.json" "$dir/guess_${leg}_obs_t4.json"
  if ! grep -Eq '"name":"csv.chunks_reparsed","value":[1-9]' \
      "$dir/guess_${leg}_obs_t1.json"; then
    echo "the $leg read of $dir/guess.csv did not read its chunks again" >&2
    exit 1
  fi
done

for flag in --chunk-rows=977 --max-memory-mb=64; do
  rc=0
  "$audit" "$dir/promotion.csv" --protected=gender --pred=promoted \
      "$flag" >/dev/null 2>"$dir/reject.txt" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q -- "--streaming" "$dir/reject.txt"; then
    echo "fairlaw_audit $flag without --streaming exited $rc," \
        "expected the flag error (exit 1)" >&2
    exit 1
  fi
done
echo "audit identity ok: both runs equal $golden," \
    "the streamed runs equal $stream_golden with equal obs dumps," \
    "the large table's reports and obs dumps agree across threads," \
    "so do the wrong-guess reads," \
    "in-memory --chunk-rows/--max-memory-mb rejected"
