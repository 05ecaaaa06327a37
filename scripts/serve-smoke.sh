#!/usr/bin/env bash
# serve-smoke.sh — end-to-end integration check for scalana-serve.
#
# Builds the real binaries, starts the server over a fresh store,
# uploads the committed cg profile-set fixtures, queries a detect
# report, and diffs it against the offline `scalana-detect -json`
# output over the same files. Exercises the full wire contract:
# upload -> content-addressed store -> byte-identical retrieval ->
# served report identical to the one-shot CLI, cold and warm (a warm
# detect reads its smaller scale from the sample cache), and a stored set
# corrupted after caching is a 500 until put back. Then uploads a
# second run at np=8 and checks that repeated GET /v1/watch requests
# serve identical bytes.
# Last, sends SIGTERM while a simulate-mode detect is in flight: new
# connections must be refused, the response must still arrive, and the
# server must exit 0.
#
# Usage: scripts/serve-smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
port="${1:-8135}"
addr="127.0.0.1:${port}"
work="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/scalana-serve" ./cmd/scalana-serve
go build -o "$work/scalana-detect" ./cmd/scalana-detect
go build -o "$work/scalana-prof" ./cmd/scalana-prof

# Offline report via the legacy profiles-directory path.
mkdir -p "$work/profiles"
cp testdata/cg.4.json testdata/cg.8.json "$work/profiles/"
"$work/scalana-detect" -app cg -scales 4,8 -profiles "$work/profiles" \
  -json "$work/offline.json" >/dev/null

"$work/scalana-serve" -addr "$addr" -store "$work/store" -quiet &
server_pid=$!

for _ in $(seq 100); do
  if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fs "http://$addr/healthz" >/dev/null || { echo "server did not come up" >&2; exit 1; }

# Upload both fixtures; capture the second upload's content hash.
curl -fs --data-binary @testdata/cg.4.json "http://$addr/v1/profiles" >/dev/null
hash8=$(curl -fs --data-binary @testdata/cg.8.json "http://$addr/v1/profiles" \
  | sed -n 's/.*"hash": "\([0-9a-f]*\)".*/\1/p')

# Stored bytes must round-trip exactly.
curl -fs "http://$addr/v1/profiles/cg/8/$hash8" > "$work/roundtrip.json"
cmp testdata/cg.8.json "$work/roundtrip.json"

# The served detect report must match the offline CLI byte-for-byte.
curl -fs -X POST -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect" > "$work/served.json"
diff "$work/offline.json" "$work/served.json"

# So must a warm one, which reads np=4 from the sample cache.
curl -fs -X POST -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect" > "$work/served-warm.json"
diff "$work/offline.json" "$work/served-warm.json"

# A byte flipped in the stored np=8 file after its graph was cached is a
# 500 naming the content hash mismatch; with the byte put back, the warm
# detect answers the offline bytes again.
stored8="$work/store/cg/8/$hash8.json"
cp "$stored8" "$work/cg.8.kept"
printf '[' | dd of="$stored8" bs=1 seek=0 conv=notrunc status=none
code=$(curl -s -o "$work/corrupt.json" -w '%{http_code}' -X POST \
  -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect")
if [ "$code" != 500 ] || ! grep -q "content hash mismatch" "$work/corrupt.json"; then
  echo "warm detect over a corrupted np=8 set: status $code, want 500 naming the content hash mismatch" >&2
  cat "$work/corrupt.json" >&2
  exit 1
fi
cp "$work/cg.8.kept" "$stored8"
curl -fs -X POST -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect" > "$work/served-restored.json"
diff "$work/offline.json" "$work/served-restored.json"

# The store-backed CLI path reads the same store the server wrote, np=4
# as a sample like the warm served detect (ingested, with no cache).
"$work/scalana-detect" -app cg -scales 4,8 -store "$work/store" \
  -json "$work/cli-store.json" >/dev/null
diff "$work/offline.json" "$work/cli-store.json"

# Sweep comparison and stats respond.
curl -fs "http://$addr/v1/sweep?app=cg&scales=4,8" >/dev/null
curl -fs "http://$addr/v1/stats" >/dev/null

# --- watch mode: upload a second np=8 run, then score the newest run
# against the rolling baseline.
"$work/scalana-prof" -app cg -np 8 -hz 500 -o "$work/cg.8b.json" >/dev/null
curl -fs --data-binary @"$work/cg.8b.json" "http://$addr/v1/profiles" >/dev/null
curl -fs "http://$addr/v1/watch?app=cg&np=8&min-runs=1" > "$work/watch-served.json"

# Identical repeated requests must serve identical bytes.
curl -fs "http://$addr/v1/watch?app=cg&np=8&min-runs=1" > "$work/watch-again.json"
cmp "$work/watch-served.json" "$work/watch-again.json"

# --- graceful shutdown: SIGTERM with a request in flight (a simulated
# zeusmp sweep, about half a second of work). /v1/stats counts a detect
# computation as it starts, so the signal goes out the moment the request
# is known to be computing.
computes() { curl -fs "http://$addr/v1/stats" | sed -n 's/.*"detect_computes": \([0-9]*\).*/\1/p'; }
before=$(computes)
curl -s -o "$work/inflight.json" -w '%{http_code}' -X POST \
  -d '{"app":"zeusmp","simulate":true,"scales":[1024,2048,4096]}' \
  "http://$addr/v1/detect" > "$work/inflight.code" &
curl_pid=$!
for _ in $(seq 200); do
  if [ "$(computes)" -gt "$before" ]; then break; fi
  sleep 0.01
done
kill -TERM "$server_pid"
sleep 0.05
if ! kill -0 "$curl_pid" 2>/dev/null; then
  echo "the request finished before SIGTERM reached the server: nothing was in flight" >&2
  exit 1
fi
if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then
  echo "server accepted a new connection after SIGTERM" >&2
  exit 1
fi
wait "$curl_pid"
if [ "$(cat "$work/inflight.code")" != 200 ] || ! grep -q '"np": 4096' "$work/inflight.json"; then
  echo "in-flight detect was cut by SIGTERM: status $(cat "$work/inflight.code")" >&2
  exit 1
fi
server_rc=0
wait "$server_pid" || server_rc=$?
if [ "$server_rc" -ne 0 ]; then
  echo "scalana-serve exited $server_rc after SIGTERM, want 0" >&2
  exit 1
fi
echo "serve-smoke: OK (served detect reports byte-identical to offline scalana-detect, repeated watches identical; SIGTERM drained the request in flight)"
