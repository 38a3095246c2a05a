#!/usr/bin/env bash
# DLW2 mux smoke: the multiplexed session transport end to end.
#
# Boots one dual-protocol backend from the committed fleet-mux-backend
# fixture (HTTP on 18090, DLW2 sessions on 18091 — same pools), then
# drives the identical 600-request load over each transport: a
# closed-loop HTTP run and a single pipelined DLW2 session keeping a
# 32-request window in flight. Asserts that both transports serve the
# full budget with no hard client failures, that the pipelined DLW2 run
# is at least as fast as the HTTP run on the same host in the same
# minute (the protocol's acceptance floor: one multiplexed connection
# must beat per-request HTTP), and that the backend drains both
# listeners gracefully on SIGTERM. Also re-asserts the frame codec's
# zero-allocation contract next to the wire run that depends on it.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$(mktemp -d)
SRV=
# On any exit — a failed gate included — stop a backend still running,
# so it cannot hold 18090/18091 and answer the next run's load.
cleanup() {
  if [ -n "$SRV" ] && kill -0 "$SRV" 2>/dev/null; then
    kill "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

echo "== frame codec 0-alloc gate =="
go test ./internal/serve/muxwire/ -run 'TestFrameCodecZeroAlloc' -v | grep -E 'PASS|ok'

echo "== boot the dual-protocol backend =="
go build -o "$work/dlis-serve" ./cmd/dlis-serve
# The fixture must validate and resolve before anything boots.
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-backend.json -dryrun
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-backend.json > "$work/backend.log" 2>&1 &
SRV=$!

echo "== closed-loop load over HTTP =="
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-http-load.json -dryrun
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-http-load.json | tee "$work/http.log"
grep -Eq 'client loop \(clients=16\): served=600 ' "$work/http.log"
if grep -q 'client(s) aborted on error' "$work/http.log"; then
  echo "HTTP load-generator clients saw hard failures"; exit 1
fi

echo "== pipelined session load over dlw2:// =="
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-dlw2-load.json -dryrun
"$work/dlis-serve" -config cmd/dlis-serve/testdata/fleet-mux-dlw2-load.json | tee "$work/mux.log"
grep -Eq 'client loop \(pipeline=32\): served=600 ' "$work/mux.log"
if grep -q 'client(s) aborted on error' "$work/mux.log"; then
  echo "DLW2 load-generator clients saw hard failures"; exit 1
fi

echo "== throughput: one DLW2 session must be >= 16 HTTP closed loops =="
http_tp=$(sed -En 's/.*throughput=([0-9.]+) req\/s.*/\1/p' "$work/http.log" | head -1)
mux_tp=$(sed -En 's/.*throughput=([0-9.]+) req\/s.*/\1/p' "$work/mux.log" | head -1)
echo "http=$http_tp req/s  dlw2=$mux_tp req/s"
awk -v m="$mux_tp" -v h="$http_tp" 'BEGIN { exit !(m >= h) }' || {
  echo "pipelined DLW2 ($mux_tp req/s) slower than HTTP ($http_tp req/s)"; exit 1
}

echo "== graceful drain of both listeners =="
kill -TERM $SRV
wait $SRV || true
cat "$work/backend.log"
grep -q 'serving HTTP on 127.0.0.1:18090' "$work/backend.log"
grep -q 'serving DLW2 sessions on 127.0.0.1:18091' "$work/backend.log"
grep -q 'drained' "$work/backend.log"
echo "mux smoke OK"
