#!/usr/bin/env bash
# Self-test of the A/B gate's decision (gate_decide in bench_check.sh) on
# canned wall_s samples; runs no benchmark.
#
#   scripts/bench_gate_test.sh
set -euo pipefail

# shellcheck source=bench_check.sh
source "$(dirname "$0")/bench_check.sh"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

tight="1.50 1.51 1.49 1.50 1.52 1.48 1.50 1.51 1.49 1.50" # IQR 0.01
wide="1.00 1.10 1.20 1.30 1.40 1.60 1.70 1.80 1.90 2.00"  # IQR 0.55

# expect NAME WANT BASE_VALUES HEAD_FACTOR: the base file holds
# BASE_VALUES, the head file the same values times HEAD_FACTOR, and
# gate_decide must exit with status WANT.
expect() {
	local got=0
	printf '%s\n' $3 >"$tmp/base"
	awk -v k="$4" '{ printf "%.4f\n", $1 * k }' "$tmp/base" >"$tmp/head"
	echo "-- $1"
	gate_decide "$tmp/base" "$tmp/head" || got=$?
	if [ "$got" != "$2" ]; then
		echo "bench_gate_test: $1: exit $got, want $2" >&2
		status=1
	fi
}

expect "A/A" 0 "$tight" 1
expect "head +20%, tight base" 1 "$tight" 1.2
expect "head +10%, tight base: inside the bound" 0 "$tight" 1.1
expect "head +20%, base IQR wider than the gap" 0 "$wide" 1.2

exit $status
