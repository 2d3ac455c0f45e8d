# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench bench-check experiments results examples vet fmt fmtcheck cover race check trace serve serve-fleet serve-smoke faults attacks multicore campaign-smoke realbin

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The concurrency-heavy packages under the race detector: the parallel
# experiment runner, the pipeline it drives (including the block-cache
# differential and fuzz-corpus tests), the functional core the block
# executor calls into, the shared trace cache, the versioned wire format,
# the vcfrd job queue / worker pool, and the sharded fault-injection
# campaign runner, and the sharded adversary-in-the-loop attack campaign,
# the sharded multi-tenant interference campaign, the fleet coordinator, the
# content-addressed artifact store, the randomizer (concurrent attack cells
# re-randomize over one shared CFG) and the gadget scanner those cells run.
# The fault campaign's walker and forked pipelines share Trans, RandRA and
# input bytes read-only across workers; each fork shares its walker's
# decoded blocks read-only.
race:
	$(GO) test -race ./internal/harness ./internal/cpu ./internal/emu ./internal/trace ./internal/results ./internal/server ./internal/fault ./internal/attack ./internal/multicore ./internal/fleet ./internal/artifact ./internal/ilr ./internal/gadget

# The full pre-commit gate. `test` runs every fuzz corpus as seeds
# (including the ELF-parser and RV64-decoder corpora under
# internal/realbin/testdata/fuzz); `realbin` additionally verifies the
# checked-in fixture binaries against their generator and SHA-256 pins.
check: build vet fmtcheck test race realbin

# The real-binary front end's own wall: verify the checked-in ELF fixtures
# (generator-identical + pin-clean), then run the parser/decoder/lifter
# tests and fuzz seeds.
realbin:
	./scripts/realbin_fixtures.sh
	$(GO) test ./internal/realbin/...

# perfbench is its own module (replace ../), so ./... skips it; vet it
# separately since it compiles against the harness and cpu APIs.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

fmt:
	gofmt -l -w .

# Fail if any file is not gofmt-clean (the CI variant of fmt).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

cover:
	$(GO) test -cover ./internal/...

# Every table and figure of the paper, as testing.B benchmarks. The
# repository's benchmark is perfbench/ (see perfbench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Same-host A/B regression gate: perfbench drc-sweep at the merge-base of
# BASE and at this checkout, 10 interleaved pairs. Fails when HEAD's median
# wall_s is more than 15% over the base's and the gap exceeds the base
# runs' IQR, or when any run is incorrect. Usage: make bench-check BASE=<ref>
bench-check:
	./scripts/bench_check.sh $(BASE)

# Every table and figure, as readable text tables.
experiments:
	$(GO) run ./cmd/experiments -experiment all

# Regenerate the archived experiment output.
results:
	$(GO) run ./cmd/experiments -experiment all | tee docs/RESULTS.txt

# Trace demo: capture one run into a .vxt file and inspect its header
# (see EXPERIMENTS.md).
trace:
	$(GO) run ./cmd/vxtrace record -workload h264ref -mode vcfr -instructions 120000 -o /tmp/h264ref.vxt
	$(GO) run ./cmd/vxtrace info /tmp/h264ref.vxt

# Run the simulation service in the foreground (SIGINT/SIGTERM drain).
serve:
	$(GO) run ./cmd/vcfrd

# Run a local fleet in the foreground: two workers on fixed ports plus a
# coordinator on :8080 that shards campaigns across them.
serve-fleet:
	$(GO) build -o /tmp/vcfrd ./cmd/vcfrd
	trap 'kill 0' INT TERM EXIT; \
	/tmp/vcfrd -addr 127.0.0.1:8081 & \
	/tmp/vcfrd -addr 127.0.0.1:8082 & \
	/tmp/vcfrd -addr 127.0.0.1:8080 -coordinator -backends http://127.0.0.1:8081,http://127.0.0.1:8082

# Boot vcfrd, exercise every endpoint, prove simulate output is
# byte-identical to vcfrsim -stats-json, and drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# The canonical campaigns as text tables: fault-injection detection
# coverage, the adversary-in-the-loop work factor, multi-tenant interference.
faults:
	$(GO) run ./cmd/campaignsim -kind faults

attacks:
	$(GO) run ./cmd/campaignsim -kind attacks

multicore:
	$(GO) run ./cmd/campaignsim -kind multicore

# For each campaign kind: boot vcfrd, run a campaign through POST /v1/jobs,
# prove the stored envelope is byte-identical to campaignsim -json, and
# drain on SIGTERM.
campaign-smoke:
	./scripts/campaign_smoke.sh faults
	./scripts/campaign_smoke.sh attacks
	./scripts/campaign_smoke.sh multicore

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ropdefense
	$(GO) run ./examples/jitrop
	$(GO) run ./examples/cachestudy
	$(GO) run ./examples/rerandomize
	$(GO) run ./examples/multicore
