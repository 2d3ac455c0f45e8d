#!/usr/bin/env bash
# Builds the benchmark and vcfrd from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload drc-sweep --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$out/bin"

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
go build -buildvcs=false -o "$out/bin/vcfrd" ./cmd/vcfrd >&2

commit=unknown dirty=false
if [ -e "$root/.git" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		dirty=true
	fi
fi

exec "$out/bin/perfbench" -root "$root" -vcfrd "$out/bin/vcfrd" \
	-commit "$commit" -dirty "$dirty" "$@"
