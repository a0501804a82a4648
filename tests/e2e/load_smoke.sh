#!/usr/bin/env bash
# Load smoke: one gridd versus a gridload worker army over real TCP.
# gridload drives a few hundred in-process scripted workers — honest plus a
# cheater fraction — through connect, authenticated handshake, and the full
# scheme exchange. Asserts that
#   - every army worker registers (authenticated handshake at load),
#   - no honest worker is accused (rejected > 0 is fine — those are the
#     cheaters — but every rejection must be a cheater-* agent),
#   - nothing aborts and gridd's summary accounts for every task,
#   - gridload's army completes every honest connection with a verdict.
#
# usage: load_smoke.sh <gridd> <gridload> [workers]
set -u

GRIDD=${1:?path to gridd}
GRIDLOAD=${2:?path to gridload}
WORKERS=${3:-200}
CHEATERS=$((WORKERS / 20))

WORKDIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$WORKDIR"' EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- gridd.log ----" >&2; cat "$WORKDIR/gridd.log" >&2 || true
  echo "---- gridload.log ----" >&2; cat "$WORKDIR/gridload.log" >&2 || true
  exit 1
}

"$GRIDD" --port 0 --workers "$WORKERS" --workload test --scheme cbs \
         --samples 1 --domain-begin 0 --domain-end $((WORKERS * 4)) \
         --seed 7 --idle-timeout-ms 2000 \
         >"$WORKDIR/gridd.log" 2>&1 &
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

"$GRIDLOAD" --connect "127.0.0.1:$PORT" --workers "$WORKERS" \
            --cheaters "$CHEATERS" --seed 99 --deadline-ms 120000 \
            >"$WORKDIR/gridload.log" 2>&1 &
LOAD_PID=$!

wait "$GRIDD_PID"; GRIDD_STATUS=$?
wait "$LOAD_PID"; LOAD_STATUS=$?

LOG="$WORKDIR/gridd.log"

# gridd exits 2 when rejections occurred — expected, the army cheats on
# purpose. 0 (every cheater got lucky at samples=1) is also legal. Anything
# else (aborts, crashes) is not.
case "$GRIDD_STATUS" in
  0|2) ;;
  *) fail "gridd exit=$GRIDD_STATUS, want 0 or 2" ;;
esac
[ "$LOAD_STATUS" -eq 0 ] || fail "gridload exit=$LOAD_STATUS, want 0"

# Full registration under load, through the authenticated handshake.
REGISTERED=$(grep -c "registered agent=" "$LOG")
[ "$REGISTERED" -eq "$WORKERS" ] \
  || fail "expected $WORKERS authenticated registrations, saw $REGISTERED"

# Zero honest-worker accusations: every non-accepted, non-aborted verdict
# must belong to a cheater-* agent.
grep -E "verdict task=" "$LOG" | grep -v "status=accepted" \
  | grep -v "status=aborted" | grep -vq "agent=cheater-" \
  && fail "an honest worker was accused"

# Nothing aborted and the summary accounts for every task.
grep -Eq "summary scheme=cbs .* aborted=0" "$LOG" || fail "tasks aborted"
grep -Eq "summary scheme=cbs .* tasks=$WORKERS " "$LOG" \
  || fail "summary does not account for $WORKERS tasks"

# The army side agrees: every honest worker completed with a verdict.
grep -q "DEADLINE-HIT" "$WORKDIR/gridload.log" && fail "gridload hit its deadline"

echo "PASS: $WORKERS-worker load smoke — all registered, honest workers unaccused"
