#!/usr/bin/env bash
# End-to-end loopback grid: one gridd supervisor + three gridworker
# processes (two honest, one semi-honest cheater) complete a full
# verification-scheme exchange over real TCP sockets. Asserts that
#   - gridd exits with status 2 (at least one task rejected),
#   - the cheater's task is rejected and its worker line is flagged,
#   - no honest worker is rejected or flagged,
#   - every worker process exits 0 with a verdict in hand.
#
# usage: loopback_grid.sh <gridd> <gridworker> [scheme]
set -u

GRIDD=${1:?path to gridd}
GRIDWORKER=${2:?path to gridworker}
SCHEME=${3:-cbs}

WORKDIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$WORKDIR"' EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- gridd.log ----" >&2; cat "$WORKDIR/gridd.log" >&2 || true
  for w in honest-1 honest-2 cheater-1; do
    echo "---- $w.log ----" >&2; cat "$WORKDIR/$w.log" >&2 || true
  done
  exit 1
}

# Ephemeral port: gridd binds port 0 and prints the port it got.
"$GRIDD" --port 0 --workers 3 --workload test --scheme "$SCHEME" \
         --domain-begin 0 --domain-end 3072 --seed 7 \
         --idle-timeout-ms 2000 >"$WORKDIR/gridd.log" 2>&1 &
GRIDD_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^gridd: listening on [0-9.]*:\([0-9]*\).*/\1/p' \
         "$WORKDIR/gridd.log" 2>/dev/null | head -1)
  [ -n "$PORT" ] && break
  kill -0 "$GRIDD_PID" 2>/dev/null || fail "gridd died before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "gridd never printed its port"

"$GRIDWORKER" --connect "127.0.0.1:$PORT" --agent honest-1 \
              >"$WORKDIR/honest-1.log" 2>&1 &
W1=$!
"$GRIDWORKER" --connect "127.0.0.1:$PORT" --agent honest-2 \
              >"$WORKDIR/honest-2.log" 2>&1 &
W2=$!
"$GRIDWORKER" --connect "127.0.0.1:$PORT" --agent cheater-1 \
              --cheat semi-honest:0.5 --seed 99 \
              >"$WORKDIR/cheater-1.log" 2>&1 &
W3=$!

wait "$GRIDD_PID"; GRIDD_STATUS=$?
wait "$W1"; W1_STATUS=$?
wait "$W2"; W2_STATUS=$?
wait "$W3"; W3_STATUS=$?

LOG="$WORKDIR/gridd.log"

# A ~50%-honest cheater escapes 33 CBS samples with probability ~2^-33:
# rejection is deterministic for practical purposes.
[ "$GRIDD_STATUS" -eq 2 ] || fail "gridd exit=$GRIDD_STATUS, want 2 (cheat detected)"
grep -Eq "worker [0-9]+ agent=cheater-1 id=[0-9a-f]+ accepted=0 rejected=1 .* flagged=yes" "$LOG" \
  || fail "cheater not flagged"
for agent in honest-1 honest-2; do
  grep -Eq "worker [0-9]+ agent=$agent id=[0-9a-f]+ accepted=1 rejected=0 .* flagged=no" "$LOG" \
    || fail "honest worker $agent not cleanly accepted"
done
# Every registration went through the authenticated handshake.
[ "$(grep -c "registered agent=" "$LOG")" -eq 3 ] || fail "expected 3 authenticated registrations"
grep -q "summary scheme=$SCHEME .* accepted=2 rejected=1 aborted=0" "$LOG" \
  || fail "summary line mismatch"

for status_var in W1_STATUS:honest-1 W2_STATUS:honest-2 W3_STATUS:cheater-1; do
  status=${status_var%%:*}; agent=${status_var##*:}
  [ "${!status}" -eq 0 ] || fail "worker $agent exit=${!status}, want 0"
done
grep -q "status=accepted" "$WORKDIR/honest-1.log" || fail "honest-1 saw no accepted verdict"
grep -q "status=accepted" "$WORKDIR/honest-2.log" || fail "honest-2 saw no accepted verdict"
grep -Eq "status=(wrong-result|root-mismatch|malformed)" "$WORKDIR/cheater-1.log" \
  || fail "cheater saw no rejection verdict"

echo "PASS: $SCHEME loopback grid caught the cheater and paid the honest workers"
