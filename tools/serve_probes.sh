#!/usr/bin/env bash
# Serve probe-listing check: the daemon looks each obs probe up the
# first time it uses it, so the stats export lists exactly the probes
# the requests so far have touched. Replays a fixed request sequence
# with a stats request at three points and compares the probe names
# each export lists (counters, histograms, spans; never their values)
# with <expected>, one export per line. Driven by ctest
# (tools_serve_probes).
#
# Usage: serve_probes.sh <fairlaw_serve> <expected>
set -euo pipefail

serve="$1"
expected="$2"

printf '%s\n' \
    '{"op":"stats"}' \
    '{"op":"ingest","events":[{"t":5,"group":"a","score":0.9,"pred":1,"label":1},{"t":7,"group":"b","score":0.2,"pred":0,"label":1}]}' \
    '{"op":"query","type":"quantiles","group":"a","q":[0.5]}' \
    '{"op":"stats"}' \
    '{"op":"query","type":"drift"}' \
    '{"op":"no_such_op"}' \
    '{"op":"stats"}' \
    | "$serve" --bucket-width=10 --window-buckets=4 \
    | grep '"op":"stats"' \
    | while IFS= read -r line; do
        printf '%s\n' "$line" | grep -o '"\(name\|path\)":"[^"]*"' \
            | paste -sd ' ' -
      done \
    | diff "$expected" -
echo "serve probes ok"
