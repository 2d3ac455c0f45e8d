// Command vcfrd serves the VCFR simulator over HTTP/JSON: a long-running
// service that answers "what is the overhead of config X on workload Y"
// queries concurrently. One shared trace cache holds the fault campaigns'
// clean reference captures, so a repeated fault job records each reference
// once; every simulation executes.
//
// Usage:
//
//	vcfrd                                   # listen on 127.0.0.1:8642
//	vcfrd -addr :9000 -workers 8 -queue 128
//	vcfrd -trace-cache 512 -job-timeout 5m
//	vcfrd -coordinator -backends http://h1:8642,http://h2:8642
//
// Endpoints (see docs/ARCHITECTURE.md and EXPERIMENTS.md for a walkthrough):
//
//	POST   /v1/jobs            unified asynchronous submission (kind: run |
//	                           sweep | faults | attacks | multicore); 202 +
//	                           job id; campaign results are byte-identical
//	                           to `campaignsim -json`
//	GET    /v1/jobs            job listing with state filter and cursor
//	GET    /v1/jobs/{id}       job state and result
//	GET    /v1/jobs/{id}/events  live progress as Server-Sent Events
//	DELETE /v1/jobs/{id}       cancel; answers the partial-rows envelope
//	POST   /v1/simulate        synchronous simulation; body byte-identical
//	                           to `vcfrsim -stats-json`
//	GET    /v1/artifacts/{ns}/{key}  content-addressed artifact exchange
//	GET    /v1/workloads       workload catalog
//	GET    /healthz            liveness
//	GET    /metrics            Prometheus text metrics
//	GET    /debug/pprof/       profiler
//
// In -coordinator mode the same API is served, but sweep, fault and attack
// jobs are sharded per workload across the -backends fleet and the shard
// envelopes merged byte-identically to single-process execution; a backend
// lost mid-campaign has its shards retried on the survivors.
//
// SIGINT/SIGTERM drain gracefully: intake stops, accepted jobs finish (up
// to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vcfr/internal/artifact"
	"vcfr/internal/fleet"
	"vcfr/internal/harness"
	"vcfr/internal/server"
	"vcfr/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcfrd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8642", "listen address (port 0 = ephemeral)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executors")
		queue       = flag.Int("queue", 64, "bounded job queue depth; a full queue answers 429")
		traceCache  = flag.Int("trace-cache", 256, "shared trace cache budget in MiB for fault-campaign reference captures (0 disables reuse)")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "default per-job execution deadline (0 = none)")
		retention   = flag.Int("job-retention", 256, "finished jobs kept pollable at /v1/jobs/{id}; oldest evicted past this")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		coordinator = flag.Bool("coordinator", false, "shard sweep/campaign jobs across -backends instead of executing locally")
		backends    = flag.String("backends", "", "comma-separated worker base URLs (coordinator mode)")
		artifacts   = flag.String("artifacts", "", "directory for the content-addressed artifact store (empty = off)")
		peer        = flag.String("artifact-peer", "", "base URL of a peer vcfrd to fetch missing artifacts from")
	)
	flag.Parse()

	r := harness.NewRunner(0)
	if *traceCache > 0 {
		r.Traces = trace.NewCache(int64(*traceCache) << 20)
	} else {
		// A zero-budget cache admits nothing but still deduplicates
		// concurrent identical captures via its singleflight.
		r.Traces = trace.NewCache(0)
	}

	cfg := server.Config{
		Addr:         *addr,
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		JobRetention: *retention,
		Runner:       r,
	}
	if *artifacts != "" {
		store, err := artifact.Open(*artifacts)
		if err != nil {
			return fmt.Errorf("artifact store: %w", err)
		}
		cfg.Artifacts = store
		// Captured traces persist into the store and survive restarts; with
		// a peer configured, traces captured anywhere in the fleet are
		// fetched instead of re-captured.
		r.Traces.SetRemote(artifact.TraceRemote{S: store})
	}
	if *peer != "" {
		cfg.ArtifactPeer = artifact.NewClient(*peer)
		if *artifacts == "" {
			r.Traces.SetRemote(artifact.PeerTraceRemote{C: cfg.ArtifactPeer})
		}
	}
	if *coordinator {
		list := splitBackends(*backends)
		if len(list) == 0 {
			return fmt.Errorf("-coordinator needs -backends host1,host2,...")
		}
		cfg.Executor = fleet.New(list).Execute
	}

	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	// The smoke test and service managers parse this line; keep its shape.
	fmt.Fprintf(os.Stderr, "vcfrd: listening on %s (workers=%d queue=%d trace-cache=%dMiB)\n",
		srv.Addr(), *workers, *queue, *traceCache)
	if *coordinator {
		fmt.Fprintf(os.Stderr, "vcfrd: coordinating %d backends: %s\n",
			len(splitBackends(*backends)), *backends)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(os.Stderr, "vcfrd: draining in-flight jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "vcfrd: drained, exiting")
	return nil
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, strings.TrimRight(b, "/"))
		}
	}
	return out
}
