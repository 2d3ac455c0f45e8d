package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/server"
	"vcfr/internal/trace"
)

// startNode boots one vcfrd instance on an ephemeral port — a worker when
// exec is nil, a coordinator when exec is the fleet executor — and returns
// it with its base URL.
func startNode(t *testing.T, exec func(context.Context, server.JobKind, server.SimRequest, func(harness.Progress)) ([]byte, error)) (*server.Server, string) {
	t.Helper()
	r := harness.NewRunner(0)
	r.Traces = trace.NewCache(64 << 20)
	s := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Workers:    2,
		QueueDepth: 32,
		JobTimeout: 2 * time.Minute,
		Runner:     r,
		Executor:   exec,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + s.Addr()
}

// runVia submits one job to a node through the unified API, waits it out,
// and returns the stored envelope bytes.
func runVia(t *testing.T, url string, kind server.JobKind, req server.SimRequest, sink func(harness.Progress)) []byte {
	t.Helper()
	c := &Client{Base: url}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	id, err := c.Submit(ctx, kind, req)
	if err != nil {
		t.Fatalf("submit %s to %s: %v", kind, url, err)
	}
	if err := c.Wait(ctx, id, sink); err != nil {
		t.Fatalf("wait %s: %v", kind, err)
	}
	body, err := c.Result(ctx, id)
	if err != nil {
		t.Fatalf("result %s: %v", kind, err)
	}
	return body
}

// fleetRequests are the job shapes the byte-identity tests shard: small
// enough to finish quickly, big enough that every kind covers multiple
// workloads (so the merge really concatenates).
func fleetRequests() map[server.JobKind]server.SimRequest {
	return map[server.JobKind]server.SimRequest{
		server.JobRun: {Workload: "bzip2", Mode: "all", Instructions: 5000},
		server.JobSweep: {
			Workloads: []string{"bzip2", "sjeng", "xalan"}, Instructions: 5000,
		},
		server.JobFaults: {
			Workloads: []string{"bzip2", "sjeng", "xalan"}, Mode: "all",
			Injections: 4, Instructions: 5000,
		},
		server.JobAttacks: {
			Workloads: []string{"bzip2", "sjeng", "xalan"}, Mode: "all",
			MaxLeaks: 4, AdvanceInsts: 500, Instructions: 5000,
		},
		server.JobMulticore: {
			Workloads: []string{"bzip2", "sjeng"}, Mode: "all",
			Cells: []string{"1c2t"}, Quantum: 1000, Instructions: 5000,
		},
	}
}

// TestFleetMatchesSingleProcess is the tentpole acceptance test: every job
// kind, submitted to a 1-coordinator + 2-worker fleet, must produce result
// bytes identical to the same request on a single-process vcfrd.
func TestFleetMatchesSingleProcess(t *testing.T) {
	_, single := startNode(t, nil)
	_, w1 := startNode(t, nil)
	_, w2 := startNode(t, nil)
	co := New([]string{w1, w2})
	_, coord := startNode(t, co.Execute)

	for kind, req := range fleetRequests() {
		t.Run(string(kind), func(t *testing.T) {
			want := runVia(t, single, kind, req, nil)
			var got []byte
			gotProgress := false
			got = runVia(t, coord, kind, req, func(harness.Progress) { gotProgress = true })
			if string(got) != string(want) {
				t.Errorf("fleet result differs from single process:\n--- fleet ---\n%.400s\n--- single ---\n%.400s", got, want)
			}
			if kind != server.JobRun && !gotProgress {
				t.Error("coordinator forwarded no progress events")
			}
		})
	}
}

// TestFleetSurvivesWorkerDeath kills one of two workers the moment the
// campaign reports progress; the coordinator must retry the dead worker's
// shards on the survivor and still deliver bytes identical to
// single-process execution.
func TestFleetSurvivesWorkerDeath(t *testing.T) {
	_, single := startNode(t, nil)
	victim, w1 := startNode(t, nil)
	_, w2 := startNode(t, nil)
	co := New([]string{w1, w2})
	co.Backoff = 10 * time.Millisecond
	_, coord := startNode(t, co.Execute)

	req := server.SimRequest{
		Workloads: []string{"bzip2", "sjeng", "xalan"}, Mode: "all",
		Injections: 8, Instructions: 20000,
	}
	want := runVia(t, single, server.JobFaults, req, nil)

	var once sync.Once
	got := runVia(t, coord, server.JobFaults, req, func(harness.Progress) {
		// First sign of life from the fleet: pull the plug on worker 1.
		// Close drops its listener and every open event stream; shards it
		// was running must be re-dispatched to worker 2.
		once.Do(func() { _ = victim.Close() })
	})
	if string(got) != string(want) {
		t.Errorf("post-failover result differs from single process:\n--- fleet ---\n%.400s\n--- single ---\n%.400s", got, want)
	}
}

// TestFleetDegradesSweepShards pins the sweep merge's graceful path: with
// every backend dead, a sweep job still answers — each workload degrades to
// the same error-row shape a failed cell has in a single-process sweep.
func TestFleetDegradesSweepShards(t *testing.T) {
	dead, deadURL := startNode(t, nil)
	_ = dead.Close()
	co := New([]string{deadURL})
	co.Attempts = 2
	co.Backoff = time.Millisecond

	seed := int64(42)
	req := server.SimRequest{Workloads: []string{"bzip2", "sjeng"}, Seed: &seed}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	body, err := co.Execute(ctx, server.JobSweep, req, nil)
	if err != nil {
		t.Fatalf("sweep over a dead fleet should degrade, not fail: %v", err)
	}
	var env struct {
		Kind  string `json:"kind"`
		Sweep struct {
			Rows []struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
				Error    string `json:"error"`
			} `json:"rows"`
			Partial bool `json:"partial"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Sweep.Partial || len(env.Sweep.Rows) != 2 {
		t.Fatalf("degraded sweep = partial=%v rows=%d, want partial with 2 error rows", env.Sweep.Partial, len(env.Sweep.Rows))
	}
	for i, w := range []string{"bzip2", "sjeng"} {
		r := env.Sweep.Rows[i]
		if r.Workload != w || r.Error == "" {
			t.Errorf("row %d = %+v, want error row for %s", i, r, w)
		}
		if r.Seed != harness.CellSeed(seed, "stats", w) {
			t.Errorf("row %d seed = %d, want the derived cell seed %d", i, r.Seed, harness.CellSeed(seed, "stats", w))
		}
	}

	// Campaigns have no per-row degradation: the job must fail loudly.
	if _, err := co.Execute(ctx, server.JobFaults, server.SimRequest{Workloads: []string{"bzip2"}}, nil); err == nil {
		t.Error("faults campaign over a dead fleet returned success")
	}
}

// TestCoordinatorSimulateRoute drives a coordinator through the synchronous
// POST /v1/simulate route, proving the fleet executor sits behind every
// submission path, not just /v1/jobs.
func TestCoordinatorSimulateRoute(t *testing.T) {
	_, single := startNode(t, nil)
	_, w1 := startNode(t, nil)
	co := New([]string{w1})
	coordSrv, _ := startNode(t, co.Execute)

	body := `{"workload": "bzip2", "mode": "all", "instructions": 5000}`
	resp, err := http.Post("http://"+coordSrv.Addr()+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate via coordinator: %d: %s", resp.StatusCode, got)
	}

	var req server.SimRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	want := runVia(t, single, server.JobRun, req, nil)
	if string(got) != string(want) {
		t.Errorf("simulate through the coordinator differs from single process:\n--- fleet ---\n%.400s\n--- single ---\n%.400s", got, want)
	}
}

// TestShardWorkloadDefaults pins the coordinator's shard plan to the
// single-process default workload lists — the merge's canonical order.
func TestShardWorkloadDefaults(t *testing.T) {
	plan := func(kind server.JobKind, req server.SimRequest) []string {
		t.Helper()
		names, err := server.ShardPlan(kind, req)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if got := plan(server.JobFaults, server.SimRequest{}); len(got) != 3 {
		t.Errorf("faults default shards = %v", got)
	}
	if got := plan(server.JobSweep, server.SimRequest{}); len(got) != 11 {
		t.Errorf("sweep default shards = %v (want the 11 SPEC analogs)", got)
	}
	want := []string{"xalan", "bzip2"}
	got := plan(server.JobAttacks, server.SimRequest{Workloads: want})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("explicit workloads not preserved in order: %v", got)
	}
	// Kinds that do not shard by workload run whole on one backend.
	for _, kind := range []server.JobKind{server.JobRun, server.JobMulticore} {
		if got := plan(kind, server.SimRequest{Workloads: want}); got != nil {
			t.Errorf("%s shard plan = %v, want none", kind, got)
		}
	}
}
