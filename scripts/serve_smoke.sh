#!/usr/bin/env bash
# End-to-end smoke test of the amdmb_serve daemon:
#
#   1. assert that amdmb_client rejects malformed numbers (exit 1, the
#      flag named on stderr) before it tries to connect,
#   2. start amdmb_serve on a private socket,
#   3. submit a quick fig07 sweep through amdmb_client and diff the
#      returned document against the standalone bench binary's
#      BENCH_fig_7.json (byte-identical is the contract),
#   4. submit it again and assert the shared kernel cache was hit,
#   5. run the deterministic load generator,
#   6. send a line of 100 000 nested '[' and assert a typed
#      protocol_error, then a stats reply on the same connection,
#   7. make 200 sequential stats connections and assert the daemon's
#      open fds did not grow with them (finished sessions are reaped),
#   8. SIGTERM the daemon and assert a clean drain (exit 0).
#
# Usage: scripts/serve_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR=${1:?usage: serve_smoke.sh <build-dir>}
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)  # The script cds around; stay valid.
WORK_DIR=$(mktemp -d)
SOCKET="$WORK_DIR/serve.sock"
SERVE="$BUILD_DIR/tools/amdmb_serve"
CLIENT="$BUILD_DIR/tools/amdmb_client"
BENCH="$BUILD_DIR/bench/bench_fig07_alufetch"

# The daemon stamps meta.quick from the request, the bench binary from
# AMDMB_QUICK — run both quick so the documents must agree bytewise.
export AMDMB_QUICK=1

SERVE_PID=
cleanup() {
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -KILL "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

echo "== malformed numbers fail before any connect"
for bad in "--requests 8abc" "--connect-retries -1"; do
  flag=${bad%% *}
  BAD_EXIT=0
  # shellcheck disable=SC2086  # $bad is a flag and its value.
  "$CLIENT" bench $bad --socket "$SOCKET" > /dev/null \
    2> "$WORK_DIR/bad.log" || BAD_EXIT=$?
  [[ "$BAD_EXIT" -eq 1 ]] || {
    echo "bench $bad exited $BAD_EXIT, expected 1"; cat "$WORK_DIR/bad.log"
    exit 1
  }
  grep -q -- "$flag" "$WORK_DIR/bad.log" || {
    echo "bench $bad: stderr does not name $flag"; cat "$WORK_DIR/bad.log"
    exit 1
  }
  if grep -q "connect(" "$WORK_DIR/bad.log"; then
    echo "bench $bad tried to connect"; cat "$WORK_DIR/bad.log"; exit 1
  fi
  echo "   bench $bad: $(cat "$WORK_DIR/bad.log")"
done

echo "== starting amdmb_serve on $SOCKET"
"$SERVE" --socket "$SOCKET" --queue 4 --inflight 1 \
  > "$WORK_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do
  [[ -S "$SOCKET" ]] && break
  sleep 0.1
done
[[ -S "$SOCKET" ]] || { cat "$WORK_DIR/serve.log"; exit 1; }

echo "== standalone bench run (the byte-compatibility reference)"
( cd "$WORK_DIR" && AMDMB_JSON_DIR="$WORK_DIR" "$BENCH" > bench.log 2>&1 )
[[ -f "$WORK_DIR/BENCH_fig_7.json" ]]

echo "== first served request"
"$CLIENT" submit fig07 --quick --socket "$SOCKET" \
  > "$WORK_DIR/got.json" 2> "$WORK_DIR/first.log"
diff "$WORK_DIR/BENCH_fig_7.json" "$WORK_DIR/got.json"
echo "   served document is byte-identical to the bench binary's"

FIRST_HITS=$("$CLIENT" stats --socket "$SOCKET" \
  | sed -n 's/^kernel cache: \([0-9]*\) hits.*/\1/p')

echo "== second served request (must hit the shared kernel cache)"
"$CLIENT" submit fig07 --quick --quiet --socket "$SOCKET" \
  > "$WORK_DIR/got2.json" 2> "$WORK_DIR/second.log"
diff "$WORK_DIR/got.json" "$WORK_DIR/got2.json"
SECOND_HITS=$("$CLIENT" stats --socket "$SOCKET" \
  | sed -n 's/^kernel cache: \([0-9]*\) hits.*/\1/p')
echo "   cache hits: $FIRST_HITS -> $SECOND_HITS"
[[ "$SECOND_HITS" -gt "$FIRST_HITS" ]] || {
  echo "second request did not hit the kernel cache"; exit 1;
}

echo "== deterministic load generator"
"$CLIENT" bench --requests 4 --concurrency 2 --seed 7 \
  --figures fig_7 --socket "$SOCKET"

echo "== a deeply nested request line is a typed error, not a crash"
python3 - "$SOCKET" <<'EOF'
import json, socket, sys
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
stream = conn.makefile("rwb")
stream.write(b"[" * 100000 + b"\n")
stream.flush()
error = json.loads(stream.readline())
assert error["event"] == "error" and error["kind"] == "protocol_error", error
stream.write(b'{"op":"stats"}\n')
stream.flush()
stats = json.loads(stream.readline())
assert stats["event"] == "stats", stats
print("   protocol_error:", error["message"])
EOF
kill -0 "$SERVE_PID"

echo "== 200 sequential stats connections (finished sessions are reaped)"
FDS_BEFORE=$(ls "/proc/$SERVE_PID/fd" | wc -l)
for _ in $(seq 200); do
  "$CLIENT" stats --socket "$SOCKET" > /dev/null
done
FDS_AFTER=$(ls "/proc/$SERVE_PID/fd" | wc -l)
echo "   daemon fds: $FDS_BEFORE -> $FDS_AFTER"
[[ "$FDS_AFTER" -le $((FDS_BEFORE + 8)) ]] || {
  echo "daemon fds grew by $((FDS_AFTER - FDS_BEFORE)) over 200 connections"
  exit 1
}

echo "== SIGTERM drain"
kill -TERM "$SERVE_PID"
DRAIN_EXIT=0
wait "$SERVE_PID" || DRAIN_EXIT=$?
SERVE_PID=
cat "$WORK_DIR/serve.log"
[[ "$DRAIN_EXIT" -eq 0 ]] || {
  echo "daemon exited $DRAIN_EXIT, expected clean drain (0)"; exit 1;
}
[[ ! -S "$SOCKET" ]] || { echo "socket not unlinked on drain"; exit 1; }
echo "== serve smoke passed"
