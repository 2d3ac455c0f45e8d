#!/bin/sh
# Smoke test for vcfrd: boot the service, hit every endpoint once, prove the
# simulate response is byte-identical to vcfrsim -stats-json, prove a
# repeated fault job reuses its reference captures from the trace cache and
# answers the same bytes, exercise the unified /v1/jobs API (the retired
# per-kind routes must be gone), boot a
# 1-coordinator + 2-worker fleet and prove a sharded fault campaign merges
# byte-identically to campaignsim -kind faults -json, and prove SIGTERM
# drains cleanly. Per-kind campaign identity lives in campaign_smoke.sh.
# Exits non-zero on the first failure.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
# The teardown tolerates daemons that already exited (the SIGTERM step
# stops two of them): under set -e a failed kill would end the trap early,
# leaving the rest running and failing a passed run.
trap 'status=$?; for f in "$TMP"/*.pid; do [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true; done; rm -rf "$TMP"; exit $status' EXIT INT TERM

# start_vcfrd NAME [extra flags...] -> prints the bound address; the pid is
# written to $TMP/NAME.pid for teardown. Runs inside command substitution,
# so the daemon's stdout/stderr must not inherit the substitution pipe.
start_vcfrd() {
    name="$1"
    log="$TMP/$name.log"
    shift
    "$TMP/vcfrd" -addr 127.0.0.1:0 "$@" >/dev/null 2>"$log" &
    echo $! >"$TMP/$name.pid"
    # The daemon prints "vcfrd: listening on ADDR (...)" once the port is bound.
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^vcfrd: listening on \([^ ]*\) .*/\1/p' "$log")"
        [ -n "$addr" ] && break
        kill -0 "$(cat "$TMP/$name.pid")" 2>/dev/null || { echo "vcfrd died:" >&2; cat "$log" >&2; return 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "never saw the listening line" >&2; cat "$log" >&2; return 1; }
    echo "$addr"
}

# poll_job ADDR JOBID -> waits until the job is done (fails the script on a
# failed or stuck job).
poll_job() {
    state=""
    for _ in $(seq 1 600); do
        state="$(curl -fsS "http://$1/v1/jobs/$2" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)"
        [ "$state" = "done" ] && return 0
        [ "$state" = "failed" ] && { echo "job $2 failed:"; curl -fsS "http://$1/v1/jobs/$2"; return 1; }
        sleep 0.1
    done
    echo "job $2 stuck in '$state'"
    return 1
}

echo "== build"
"$GO" build -o "$TMP/vcfrd" ./cmd/vcfrd

echo "== start"
ADDR="$(start_vcfrd main)"
MAIN_PID="$(cat "$TMP/main.pid")"
echo "   $ADDR"

echo "== healthz"
[ "$(curl -fsS "http://$ADDR/healthz")" = "ok" ]

echo "== simulate is byte-identical to vcfrsim -stats-json"
REQ='{"workload": "h264ref", "mode": "all", "instructions": 50000}'
curl -fsS -d "$REQ" "http://$ADDR/v1/simulate" >"$TMP/service.json"
"$GO" run ./cmd/vcfrsim -workload h264ref -mode all -instructions 50000 -stats-json >"$TMP/cli.json"
cmp "$TMP/service.json" "$TMP/cli.json"

echo "== a repeated fault job reuses its reference captures from the trace cache"
# trace_counter NAME -> the main daemon's vcfrd_trace_cache_NAME_total.
trace_counter() {
    curl -fsS "http://$ADDR/metrics" | sed -n "s/^vcfrd_trace_cache_$1_total //p"
}
# fault_job OUT -> submits RREQ, waits for it, and writes its result to OUT.
RREQ='{"kind": "faults", "workloads": ["bzip2"], "mode": "vcfr", "injections": 8, "instructions": 10000}'
fault_job() {
    id="$(curl -fsS -d "$RREQ" "http://$ADDR/v1/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "/v1/jobs returned no job id"; return 1; }
    poll_job "$ADDR" "$id"
    curl -fsS "http://$ADDR/v1/jobs/$id/result" >"$1"
}
fault_job "$TMP/faults1.json"
HITS0="$(trace_counter hits)"; MISSES0="$(trace_counter misses)"
[ "${MISSES0:-0}" -ge 1 ] || { echo "first fault job captured nothing (misses=$MISSES0)"; exit 1; }
fault_job "$TMP/faults2.json"
HITS1="$(trace_counter hits)"; MISSES1="$(trace_counter misses)"
[ "${HITS1:-0}" -gt "${HITS0:-0}" ] || { echo "repeat was not a trace cache hit (hits $HITS0 -> $HITS1)"; exit 1; }
[ "$MISSES1" = "$MISSES0" ] || { echo "repeat re-captured (misses $MISSES0 -> $MISSES1)"; exit 1; }
cmp "$TMP/faults1.json" "$TMP/faults2.json"

echo "== unified submission via POST /v1/jobs"
JOB="$(curl -fsS -d '{"kind": "sweep", "workloads": ["lbm"], "instructions": 50000}' "http://$ADDR/v1/jobs" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "/v1/jobs returned no job id"; exit 1; }
poll_job "$ADDR" "$JOB"

echo "== the retired per-kind routes are gone"
for route in sweep faults attacks; do
    CODE="$(curl -sS -o /dev/null -w '%{http_code}' -d '{}' "http://$ADDR/v1/$route")"
    [ "$CODE" = "404" ] || { echo "POST /v1/$route answered $CODE, want 404"; exit 1; }
done

echo "== job listing paginates"
curl -fsS "http://$ADDR/v1/jobs?state=done&limit=1" | grep -q '"jobs"'

echo "== workloads catalog"
curl -fsS "http://$ADDR/v1/workloads" | grep -q '"name"'

echo "== fleet: 2 workers + 1 coordinator, sharded campaign merges byte-identically"
W1="$(start_vcfrd worker1)"
W2="$(start_vcfrd worker2)"
CO="$(start_vcfrd coord -coordinator -backends "http://$W1,http://$W2")"
CO_PID="$(cat "$TMP/coord.pid")"
echo "   workers $W1 $W2, coordinator $CO"
FREQ='{"kind": "faults", "workloads": ["bzip2", "sjeng"], "mode": "vcfr", "injections": 20, "instructions": 10000}'
FJOB="$(curl -fsS -d "$FREQ" "http://$CO/v1/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$FJOB" ] || { echo "coordinator returned no job id"; exit 1; }
poll_job "$CO" "$FJOB"
curl -fsS "http://$CO/v1/jobs/$FJOB/result" >"$TMP/fleet.json"
"$GO" run ./cmd/campaignsim -kind faults -workloads bzip2,sjeng -mode vcfr -injections 20 \
    -instructions 10000 -json >"$TMP/fleet-cli.json"
cmp "$TMP/fleet.json" "$TMP/fleet-cli.json"

echo "== SIGTERM drains"
# The daemons were started inside command substitutions, so they are not
# children of this shell; poll for exit instead of wait(1).
kill -TERM "$MAIN_PID" "$CO_PID"
for p in "$MAIN_PID" "$CO_PID"; do
    for _ in $(seq 1 100); do
        kill -0 "$p" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$p" 2>/dev/null && { echo "pid $p did not exit on SIGTERM"; exit 1; }
done
grep -q "vcfrd: drained, exiting" "$TMP/main.log" || { echo "no clean drain:"; cat "$TMP/main.log"; exit 1; }
grep -q "vcfrd: drained, exiting" "$TMP/coord.log" || { echo "coordinator did not drain:"; cat "$TMP/coord.log"; exit 1; }

echo "PASS"
