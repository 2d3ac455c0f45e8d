package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/server"
)

// Coordinator shards jobs across a fleet of worker vcfrd backends. Plug
// Execute into server.Config.Executor and the coordinator's own /v1/jobs
// surface becomes fleet-backed while staying wire-compatible with a
// single-process vcfrd: same routes, same envelopes, same bytes.
type Coordinator struct {
	// Backends are worker base URLs ("http://host:port"). At least one.
	Backends []string
	// HTTP is the transport shared by all backend conversations; nil means
	// a fresh timeout-free client (event streams stay open for the length
	// of a campaign, so no global timeout — deadlines arrive via ctx).
	HTTP *http.Client
	// Attempts bounds how many backends a single shard tries before giving
	// up; 0 means three passes over the fleet.
	Attempts int
	// Backoff is the base delay between a shard's attempts; 0 means 100ms.
	// The delay grows linearly with the attempt number.
	Backoff time.Duration

	rr atomic.Uint64 // round-robin origin so shards spread over the fleet
}

// New returns a Coordinator over the given worker backends.
func New(backends []string) *Coordinator {
	return &Coordinator{Backends: backends, HTTP: &http.Client{}}
}

// Execute is the fleet implementation of server.Config.Executor: it shards
// the job per workload, dispatches the shards concurrently, retries failures
// on surviving backends, and merges the shard envelopes into the bytes
// single-process execution would have produced.
func (co *Coordinator) Execute(ctx context.Context, kind server.JobKind, req server.SimRequest, progress func(harness.Progress)) ([]byte, error) {
	if len(co.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	names, err := server.ShardPlan(kind, req)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if names == nil {
		// The kind does not shard by workload (a single run is one
		// indivisible cell; a multicore cell co-runs the whole tenant mix).
		// Proxy the job whole to one backend (retrying elsewhere on
		// failure) and return the result bytes verbatim.
		return co.runShard(ctx, kind, req, progress)
	}
	return co.executeSharded(ctx, kind, req, names, progress)
}

// executeSharded fans a job out one shard per workload of its plan and
// merges through the kind table. Per-cell seeds derive from the campaign
// seed and the workload name, so a shard computes exactly the rows the full
// job would have computed for that workload — wherever it lands and however
// often it re-runs after a worker death.
func (co *Coordinator) executeSharded(ctx context.Context, kind server.JobKind, req server.SimRequest, names []string, progress func(harness.Progress)) ([]byte, error) {
	shards := make([]server.Shard, len(names))
	agg := newProgressAgg(len(names), progress)
	var wg sync.WaitGroup
	for i, w := range names {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			sreq := req
			sreq.Workloads = []string{w}
			body, err := co.runShard(ctx, kind, sreq, agg.shard(i))
			shards[i] = server.Shard{Workload: w, Body: body, Err: err}
		}(i, w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return server.MergeShards(kind, req, shards)
}

// runShard executes one shard to completion on some backend: submit, follow
// the event stream, fetch the envelope. Failures (worker death, refusal,
// partial result) rotate to the next backend with a short growing backoff
// until the attempt budget runs out.
func (co *Coordinator) runShard(ctx context.Context, kind server.JobKind, req server.SimRequest, sink func(harness.Progress)) ([]byte, error) {
	n := len(co.Backends)
	attempts := co.Attempts
	if attempts <= 0 {
		attempts = 3 * n
	}
	start := int(co.rr.Add(1)-1) % n
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := co.Backends[(start+a)%n]
		body, err := co.runOn(ctx, base, kind, req, sink)
		if err == nil {
			return body, nil
		}
		lastErr = fmt.Errorf("%s: %w", base, err)
		if a < attempts-1 {
			select {
			case <-time.After(co.backoff(a)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return nil, fmt.Errorf("fleet: shard failed on all backends after %d attempts: %w", attempts, lastErr)
}

func (co *Coordinator) backoff(attempt int) time.Duration {
	base := co.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return base * time.Duration(attempt+1)
}

// runOn runs one shard attempt against one backend. A partial envelope (the
// worker was draining or timed out mid-shard) counts as a failure: merging
// it would silently diverge from the single-process bytes, so the shard
// retries whole instead.
func (co *Coordinator) runOn(ctx context.Context, base string, kind server.JobKind, req server.SimRequest, sink func(harness.Progress)) ([]byte, error) {
	c := &Client{Base: base, HTTP: co.HTTP}
	id, err := c.Submit(ctx, kind, req)
	if err != nil {
		return nil, err
	}
	if err := c.Wait(ctx, id, sink); err != nil {
		return nil, err
	}
	body, err := c.Result(ctx, id)
	if err != nil {
		return nil, err
	}
	if env, err := results.Unmarshal(body); err != nil {
		return nil, err
	} else if env.Partial() {
		return nil, fmt.Errorf("backend returned a partial envelope for job %s", id)
	}
	return body, nil
}

// progressAgg folds per-shard progress into one fleet-wide cumulative view:
// each shard overwrites its own slot, the sink sees the sums. A retried
// shard restarts its slot from the new attempt's numbers, so the aggregate
// can briefly step backwards after a worker death — progress is
// informational, the envelope is the contract.
type progressAgg struct {
	mu   sync.Mutex
	per  []harness.Progress
	sink func(harness.Progress)
}

func newProgressAgg(n int, sink func(harness.Progress)) *progressAgg {
	return &progressAgg{per: make([]harness.Progress, n), sink: sink}
}

func (a *progressAgg) shard(i int) func(harness.Progress) {
	if a.sink == nil {
		return nil
	}
	return func(p harness.Progress) {
		a.mu.Lock()
		a.per[i] = p
		var tot harness.Progress
		for _, q := range a.per {
			tot.CellsDone += q.CellsDone
			tot.CellsTotal += q.CellsTotal
			tot.Instructions += q.Instructions
		}
		a.mu.Unlock()
		a.sink(tot)
	}
}
