#!/usr/bin/env bash
# Same-host A/B regression gate for the simulator, over the repository's one
# benchmark (perfbench/).
#
#   scripts/bench_check.sh BASE_REF
#
# Checks out `git merge-base BASE_REF HEAD` into a worktree under
# .bench_build/, then runs perfbench's drc-sweep workload in that checkout
# and in this one for PAIRS interleaved pairs, alternating which side goes
# first, so both sides see the same host and the same drift. It fails when
#
#   - any run reports correct: false or failed > 0, or
#   - HEAD's median wall_s is more than BOUND_PCT above the base median AND
#     the gap between the medians is larger than the base runs' IQR (a gap
#     inside the base's own spread is noise, not a regression).
#
# Every setting is a constant below; the script reads no environment
# variable and takes no flag. Sourcing it defines gate_decide without
# running anything, which is how scripts/bench_gate_test.sh checks the
# decision on canned inputs.
set -euo pipefail

PAIRS=10
WORKLOAD=drc-sweep
SEED=42
RUN_SECONDS=5
METRIC=wall_s
BOUND_PCT=15

# gate_decide BASE_FILE HEAD_FILE: each file holds one METRIC value per
# line. Prints both sides' median and IQR and the verdict; exits 0 to
# pass, 1 on a regression, 2 when either side has fewer than 4 values.
gate_decide() {
	awk -v bound="$BOUND_PCT" -v metric="$METRIC" '
	FNR == 1 { side++ }
	NF { n[side]++; v[side, n[side]] = $1 + 0 }
	# q returns the p-quantile of side s, interpolating between the two
	# nearest sorted values (s[1 + p*(n-1)]).
	function q(s, p,    h, lo) {
		h = 1 + p * (n[s] - 1); lo = int(h)
		if (lo >= n[s]) return v[s, n[s]]
		return v[s, lo] + (h - lo) * (v[s, lo + 1] - v[s, lo])
	}
	function sortside(s,    i, j, x) {
		for (i = 2; i <= n[s]; i++) {
			x = v[s, i]
			for (j = i - 1; j >= 1 && v[s, j] > x; j--) v[s, j + 1] = v[s, j]
			v[s, j + 1] = x
		}
	}
	END {
		if (side != 2 || n[1] < 4 || n[2] < 4) {
			print "bench_check: need at least 4 values on each side" > "/dev/stderr"
			exit 2
		}
		for (s = 1; s <= 2; s++) {
			sortside(s)
			med[s] = q(s, 0.5); q1[s] = q(s, 0.25); q3[s] = q(s, 0.75)
		}
		iqr = q3[1] - q1[1]
		gap = med[2] - med[1]
		pct = 100 * gap / med[1]
		printf "== base %s median %.4f  IQR %.4f (%.4f-%.4f), %d runs\n", metric, med[1], iqr, q1[1], q3[1], n[1]
		printf "== head %s median %.4f  IQR %.4f (%.4f-%.4f), %d runs\n", metric, med[2], q3[2] - q1[2], q1[2], q3[2], n[2]
		printf "== head - base %+.4f (%+.1f%%, bound +%d%%, base IQR %.4f)\n", gap, pct, bound, iqr
		if (pct > bound && gap > iqr) {
			printf "== bench_check: FAIL: %s median %+.1f%% over base, beyond +%d%% and the base IQR\n", metric, pct, bound
			exit 1
		}
		print "== bench_check: PASS"
	}' "$1" "$2"
}

# bench_once DIR SIDE: one perfbench run in checkout DIR; appends its
# METRIC to $gate/SIDE and prints it. Fails on an incorrect run.
bench_once() {
	local result value
	result=$(cd "$1" && bash perfbench/run.sh --workload "$WORKLOAD" --seed "$SEED" \
		--seconds "$RUN_SECONDS" --trace 0 2>>"$gate/build.log" | tail -n 1)
	if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0[,}]' <<<"$result"; then
		echo "bench_check: FAIL: $2 run incorrect or not finished (log: $gate/build.log): $result" >&2
		return 1
	fi
	value=$(sed -n "s/.*\"$METRIC\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$result")
	if [ -z "$value" ]; then
		echo "bench_check: no $METRIC in $2 result: $result" >&2
		return 2
	fi
	echo "$value" >>"$gate/$2"
	echo "$value"
}

main() {
	if [ $# -ne 1 ]; then
		echo "usage: scripts/bench_check.sh BASE_REF" >&2
		return 2
	fi
	local base_sha i order side line
	head_dir=$(git rev-parse --show-toplevel)
	base_sha=$(git -C "$head_dir" merge-base "$1" HEAD)
	base_dir="$head_dir/.bench_build/gate-base"
	gate="$head_dir/.bench_build/gate"
	local -A dir=([base]="$base_dir" [head]="$head_dir")
	rm -rf "$gate"
	mkdir -p "$gate"
	git -C "$head_dir" worktree remove --force "$base_dir" 2>/dev/null || rm -rf "$base_dir"
	git -C "$head_dir" worktree prune
	git -C "$head_dir" worktree add --detach "$base_dir" "$base_sha" >/dev/null
	trap 'git -C "$head_dir" worktree remove --force "$base_dir"' EXIT

	echo "== bench_check: $WORKLOAD $METRIC, HEAD $(git -C "$head_dir" rev-parse --short HEAD) vs base ${base_sha:0:7}, $PAIRS pairs"
	for ((i = 1; i <= PAIRS; i++)); do
		order="base head"
		((i % 2)) || order="head base"
		line="pair $i:"
		for side in $order; do
			line+=" $side $(bench_once "${dir[$side]}" "$side")" || return
		done
		echo "$line"
	done
	gate_decide "$gate/base" "$gate/head"
}

if [ "${BASH_SOURCE[0]}" = "$0" ]; then
	main "$@"
fi
