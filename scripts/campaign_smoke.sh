#!/bin/sh
# Smoke test for one campaign kind (faults | attacks | multicore): boot
# vcfrd, run a small campaign through POST /v1/jobs, poll the job to
# completion, and prove the stored envelope at /v1/jobs/{id}/result is
# byte-identical to `campaignsim -kind KIND -json` with the same
# parameters. Also checks that the kind's counters reached /metrics and
# that SIGTERM still drains cleanly. Exits non-zero on the first failure.
#
# Usage: scripts/campaign_smoke.sh faults|attacks|multicore
set -eu

KIND="${1:?usage: $0 faults|attacks|multicore}"
case "$KIND" in
faults)
    REQ='"workloads": ["bzip2"], "mode": "all", "injections": 30, "instructions": 10000'
    FLAGS='-workloads bzip2 -mode all -injections 30 -instructions 10000'
    # The service merges each finished campaign's Stats into the registry,
    # so the counter must match this figure in the envelope's totals block.
    COUNTER=vcfrd_fault_injected_total TOTAL=injected CAMPAIGNS=vcfrd_fault_campaigns_total
    ;;
attacks)
    REQ='"workloads": ["bzip2"], "mode": "all"'
    FLAGS='-workloads bzip2 -mode all'
    COUNTER=vcfrd_attack_leaks_total TOTAL=leaks CAMPAIGNS=vcfrd_attack_campaigns_total
    ;;
multicore)
    REQ='"workloads": ["bzip2", "sjeng"], "mode": "vcfr", "cells": ["1c2t"], "quantum": 2000, "instructions": 10000'
    FLAGS='-workloads bzip2,sjeng -mode vcfr -cells 1c2t -quantum 2000 -instructions 10000'
    # Multicore campaigns feed no campaign counters.
    COUNTER='' TOTAL='' CAMPAIGNS=''
    ;;
*)
    echo "unknown kind $KIND (want faults, attacks, or multicore)"
    exit 2
    ;;
esac

GO="${GO:-go}"
TMP="$(mktemp -d)"
trap 'status=$?; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"; exit $status' EXIT INT TERM

echo "== build"
"$GO" build -o "$TMP/vcfrd" ./cmd/vcfrd
"$GO" build -o "$TMP/campaignsim" ./cmd/campaignsim

echo "== start"
"$TMP/vcfrd" -addr 127.0.0.1:0 2>"$TMP/vcfrd.log" &
PID=$!

# The daemon prints "vcfrd: listening on ADDR (...)" once the port is bound.
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^vcfrd: listening on \([^ ]*\) .*/\1/p' "$TMP/vcfrd.log")"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "vcfrd died:"; cat "$TMP/vcfrd.log"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "never saw the listening line"; cat "$TMP/vcfrd.log"; exit 1; }
echo "   $ADDR"

echo "== submit $KIND campaign"
JOB="$(curl -fsS -d "{\"kind\": \"$KIND\", $REQ}" "http://$ADDR/v1/jobs" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "/v1/jobs returned no job id"; exit 1; }
echo "   $JOB"

echo "== poll to completion"
STATE=""
for _ in $(seq 1 600); do
    STATE="$(curl -fsS "http://$ADDR/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)"
    [ "$STATE" = "done" ] && break
    [ "$STATE" = "failed" ] && { echo "$KIND job failed"; curl -fsS "http://$ADDR/v1/jobs/$JOB"; exit 1; }
    sleep 0.1
done
[ "$STATE" = "done" ] || { echo "$KIND job stuck in '$STATE'"; exit 1; }

echo "== result is byte-identical to campaignsim -kind $KIND -json"
curl -fsS "http://$ADDR/v1/jobs/$JOB/result" >"$TMP/service.json"
# shellcheck disable=SC2086 # FLAGS is a word list
"$TMP/campaignsim" -kind "$KIND" $FLAGS -json >"$TMP/cli.json"
cmp "$TMP/service.json" "$TMP/cli.json"

if [ -n "$COUNTER" ]; then
    echo "== $KIND counters reached /metrics"
    curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
    N="$(sed -n "s/^$CAMPAIGNS //p" "$TMP/metrics.txt")"
    [ "${N:-0}" -ge 1 ] || { echo "no campaign counted ($CAMPAIGNS=$N)"; exit 1; }
    WANT="$(sed -n "/\"totals\"/,/}/{s/.*\"$TOTAL\": *\([0-9]*\).*/\1/p;}" "$TMP/cli.json" | head -1)"
    GOT="$(sed -n "s/^$COUNTER //p" "$TMP/metrics.txt")"
    [ -n "$WANT" ] || { echo "could not find \"$TOTAL\" in the campaign totals"; exit 1; }
    [ "${GOT:-0}" = "$WANT" ] || { echo "$COUNTER $GOT != campaign total $WANT"; exit 1; }
fi

echo "== SIGTERM drains"
kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "vcfrd: drained, exiting" "$TMP/vcfrd.log" || { echo "no clean drain:"; cat "$TMP/vcfrd.log"; exit 1; }

echo "PASS"
