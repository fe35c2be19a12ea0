#!/usr/bin/env bash
# Server smoke test: start maybms_server on an ephemeral port, run a
# writer client plus several concurrent reader clients over the wire
# protocol, then SIGTERM the server and require a clean drain (exit 0
# and the drain summary line). Exercises the binaries end to end the way
# the unit tests cannot: through real processes and signals.
#
# Usage: scripts/server_smoke.sh
# Environment:
#   BUILD_DIR  build directory holding the binaries (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SERVER="${BUILD_DIR}/maybms_server"
CLIENT="${BUILD_DIR}/maybms_client"
for bin in "${SERVER}" "${CLIENT}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "server-smoke: ${bin} not built (run scripts/check.sh first)" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2>/dev/null; then
    kill -KILL "${server_pid}" 2>/dev/null || true
  fi
  rm -rf "${workdir}"
}
trap cleanup EXIT

fail() { echo "server-smoke: FAIL: $*" >&2; exit 1; }

# --- Strict numeric flags -------------------------------------------------
# A malformed or out-of-range value is a usage error (exit 2), never a
# wrapped or ignored one. `timeout` stops a binary that starts serving
# instead.
for flags in "--port 70000" "--max-worlds abc" "--threads -1"; do
  rc=0
  # shellcheck disable=SC2086  # split the flag from its value
  timeout 10 "${SERVER}" ${flags} >"${workdir}/flags.out" 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] \
    || fail "maybms_server ${flags} exited ${rc} (want 2): $(cat "${workdir}/flags.out")"
done
echo "server-smoke: malformed numeric flags exit 2"

# --- Start the server on an ephemeral port -------------------------------
"${SERVER}" --port 0 --max-connections 8 >"${workdir}/server.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 100); do
  port="$(grep -oE 'listening on [0-9.]+:[0-9]+' "${workdir}/server.log" \
          2>/dev/null | grep -oE '[0-9]+$' || true)"
  [[ -n "${port}" ]] && break
  kill -0 "${server_pid}" 2>/dev/null || fail "server died during startup: $(cat "${workdir}/server.log")"
  sleep 0.1
done
[[ -n "${port}" ]] && echo "server-smoke: serving on port ${port}" \
  || fail "no listening line in $(cat "${workdir}/server.log")"

# --- Writer: create a small probabilistic database -----------------------
"${CLIENT}" --port "${port}" -e "
  create table R (K integer, V integer);
  insert into R values (1,1),(1,2),(2,1),(2,2);
  create table I as select * from R repair by key K;
" >"${workdir}/writer.out" || fail "writer client: $(cat "${workdir}/writer.out")"

# An error reply must exit nonzero without killing the connection state.
if "${CLIENT}" --port "${port}" -e "selec nonsense;" \
     >"${workdir}/err.out" 2>&1; then
  fail "parse error did not produce a nonzero client exit"
fi

# --- Concurrent readers over the shared world-set ------------------------
expected="$("${CLIENT}" --port "${port}" -e "select possible V from I;")"
[[ -n "${expected}" ]] || fail "empty probe result"

reader_pids=()
for i in 1 2 3 4; do
  (
    for _ in $(seq 10); do
      got="$("${CLIENT}" --port "${port}" -e "select possible V from I;")"
      [[ "${got}" == "${expected}" ]] || exit 1
    done
  ) &
  reader_pids+=("$!")
done
for pid in "${reader_pids[@]}"; do
  wait "${pid}" || fail "a concurrent reader saw a result differing from serial execution"
done
echo "server-smoke: 4 concurrent readers x 10 round-trips consistent"

# --- Graceful drain on SIGTERM -------------------------------------------
kill -TERM "${server_pid}"
rc=0
wait "${server_pid}" || rc=$?
server_pid=""
[[ "${rc}" -eq 0 ]] || fail "server exited ${rc} on SIGTERM (want 0): $(cat "${workdir}/server.log")"
grep -q "drained cleanly" "${workdir}/server.log" \
  || fail "no drain summary in server log: $(cat "${workdir}/server.log")"

echo "server-smoke: OK ($(grep 'drained cleanly' "${workdir}/server.log"))"
