package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vcfr/internal/artifact"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

// postWithHeaders is post with extra request headers (Idempotency-Key).
func postWithHeaders(t *testing.T, s *Server, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func acceptedID(t *testing.T, body []byte) string {
	t.Helper()
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad 202 body: %s", body)
	}
	return acc.ID
}

// TestJobsMatchInProcessRun is the unified API's acceptance test: every
// kind submits through POST /v1/jobs, and the result bytes are identical to
// the in-process Run of the same request — the path campaignsim prints —
// so there is one execution path, not a service twin of each CLI. A run
// job's bytes also equal the synchronous POST /v1/simulate response.
func TestJobsMatchInProcessRun(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 16})

	cases := []struct {
		kind     JobKind
		campaign bool // has a text table
		body     string
	}{
		{JobRun, false, `{"workload": "bzip2", "mode": "vcfr", "instructions": 5000}`},
		{JobSweep, false, `{"workloads": ["bzip2"], "instructions": 5000}`},
		{JobFaults, true, `{"workloads": ["bzip2"], "mode": "vcfr", "injections": 4, "instructions": 5000}`},
		{JobAttacks, true, `{"workloads": ["bzip2"], "mode": "vcfr", "max_leaks": 4, "advance_insts": 500, "instructions": 5000}`},
		{JobMulticore, true, `{"workloads": ["bzip2"], "mode": "vcfr", "cells": ["1c2t"], "quantum": 1000, "instructions": 5000}`},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			resp, body := post(t, s, "/v1/jobs", fmt.Sprintf(`{"kind": %q, %s`, tc.kind, tc.body[1:]))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, body)
			}
			id := acceptedID(t, body)
			v := pollJob(t, s, id)
			if v.State != JobDone {
				t.Fatalf("unified %s job failed: %s", tc.kind, v.Error)
			}
			// The byte-identity surface is /result, which writes the stored
			// envelope verbatim (the job view embeds it as a JSON value,
			// which re-encodes).
			rresp, unified := get(t, s, "/v1/jobs/"+id+"/result")
			if rresp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d: %s", rresp.StatusCode, unified)
			}

			var req SimRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), harness.NewRunner(1), tc.kind, req, nil)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := results.Marshal(rep.Envelope())
			if err != nil {
				t.Fatal(err)
			}
			if string(unified) != string(direct) {
				t.Errorf("%s: /v1/jobs result differs from in-process Run:\n--- jobs ---\n%.300s\n--- run ---\n%.300s",
					tc.kind, unified, direct)
			}
			if (rep.Table() != nil) != tc.campaign {
				t.Errorf("%s: text table present = %v, want one exactly for campaigns", tc.kind, rep.Table() != nil)
			}
			if tc.kind == JobRun {
				resp, sync := post(t, s, "/v1/simulate", tc.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /v1/simulate: %d: %s", resp.StatusCode, sync)
				}
				if string(unified) != string(sync) {
					t.Errorf("run: /v1/jobs result differs from /v1/simulate")
				}
			}
		})
	}

	// The unified endpoint rejects a missing and an unknown kind with the
	// structured error envelope every handler shares.
	for _, bad := range []string{`{}`, `{"kind": "exfiltrate"}`} {
		resp, body := post(t, s, "/v1/jobs", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad kind accepted: %d: %s", resp.StatusCode, body)
		}
		var e struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "bad_request" || e.Error.Message == "" {
			t.Errorf("error envelope = %s, want {error:{code:bad_request,...}}", body)
		}
	}
}

// swapExec replaces the server's executor with one that finishes instantly
// with a tiny envelope, for tests about lifecycle plumbing rather than
// simulation.
func swapExec(s *Server) {
	s.exec = func(ctx context.Context, j *Job) (results.Envelope, error) {
		return results.NewRun(results.Run{Workload: j.Req.Workload, Mode: "vcfr", Seed: 1}), nil
	}
}

// TestJobsListPagination pins the listing contract: submission order, state
// filtering, and a cursor that stays valid across retention eviction —
// pagination never skips or repeats a surviving job even when the job the
// cursor names has been evicted between pages.
func TestJobsListPagination(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 32, JobRetention: 8})
	swapExec(s)

	submit := func(n int) []string {
		ids := make([]string, 0, n)
		for i := 0; i < n; i++ {
			resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d: %s", resp.StatusCode, body)
			}
			id := acceptedID(t, body)
			pollJob(t, s, id)
			ids = append(ids, id)
		}
		return ids
	}
	first := submit(10) // retention 8: the oldest two are already evicted

	type page struct {
		Jobs []struct {
			ID    string
			State string
		}
		NextCursor string `json:"next_cursor"`
	}
	list := func(query string) page {
		resp, body := get(t, s, "/v1/jobs"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: %d: %s", query, resp.StatusCode, body)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := list("?limit=3&state=done")
	if len(p1.Jobs) != 3 || p1.NextCursor == "" {
		t.Fatalf("page 1 = %d jobs, cursor %q; want 3 jobs and a cursor", len(p1.Jobs), p1.NextCursor)
	}
	if p1.Jobs[0].ID != first[2] {
		t.Errorf("page 1 starts at %s; want %s (oldest two evicted by retention)", p1.Jobs[0].ID, first[2])
	}

	// Push more jobs through so eviction advances past the cursor itself.
	submit(4)

	p2 := list("?limit=100&state=done&cursor=" + p1.NextCursor)
	seen := map[string]bool{}
	for _, j := range p1.Jobs {
		seen[j.ID] = true
	}
	prev := p1.NextCursor
	for _, j := range p2.Jobs {
		if seen[j.ID] {
			t.Errorf("job %s repeated across pages", j.ID)
		}
		if j.ID <= prev {
			t.Errorf("page 2 out of order: %s after %s", j.ID, prev)
		}
		prev = j.ID
	}
	// Every job the server still remembers and that postdates the cursor
	// must be on page 2: nothing skipped.
	full := list("?limit=100&state=done")
	want := 0
	for _, j := range full.Jobs {
		if j.ID > p1.NextCursor {
			want++
		}
	}
	if len(p2.Jobs) != want {
		t.Errorf("page 2 has %d jobs, want %d (all surviving jobs past the cursor)", len(p2.Jobs), want)
	}

	// Listing rejects junk with the shared error envelope.
	if resp, _ := get(t, s, "/v1/jobs?state=melting"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad state filter: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, s, "/v1/jobs?cursor=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, s, "/v1/jobs?limit=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", resp.StatusCode)
	}
}

// TestJobDeleteMidSweep cancels a running sweep through DELETE and pins the
// response contract: 200 with the partial-rows envelope — the rows that
// finished plus error rows for the cells cancellation reached first.
func TestJobDeleteMidSweep(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs", `{"kind": "sweep", "workloads": ["bzip2", "sjeng", "xalan"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := acceptedID(t, body)

	// Wait for the job to leave the queue so cancellation lands mid-sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, b := get(t, s, "/v1/jobs/"+id)
		var v jobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == JobRunning {
			break
		}
		if v.State == JobDone || v.State == JobFailed {
			t.Skip("sweep finished before it could be cancelled; nothing to test")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	dbody, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d: %.300s", dresp.StatusCode, dbody)
	}
	env, err := results.Unmarshal(dbody)
	if err != nil {
		t.Fatalf("DELETE body is not an envelope: %v", err)
	}
	if env.Kind != results.KindSweep || env.Sweep == nil {
		t.Fatalf("DELETE body kind = %s, want sweep", env.Kind)
	}
	if !env.Sweep.Partial {
		t.Error("cancelled sweep not marked partial")
	}
	cancelled := 0
	for _, r := range env.Sweep.Rows {
		if r.Failed() {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancelled sweep has no error rows")
	}

	// The job settles as done (partial rows are a result, not a failure) and
	// a second DELETE answers the same settled envelope.
	v := pollJob(t, s, id)
	if v.State != JobDone {
		t.Errorf("cancelled job state = %s, want done", v.State)
	}

	// Unknown ids 404 with the shared envelope.
	req, _ = http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/job-999999", nil)
	nresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", nresp.StatusCode)
	}
}

// TestIdempotencyKeyDedupe fires 8 concurrent identical submissions with
// one Idempotency-Key and requires exactly one job: one 202 without the
// replay marker, seven with it, all naming the same id.
func TestIdempotencyKeyDedupe(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 32})
	swapExec(s)

	const dupes = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ids      = map[string]int{}
		replayed int
	)
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/jobs",
				strings.NewReader(`{"kind": "run", "workload": "bzip2"}`))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Idempotency-Key", "dedupe-test-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var acc struct{ ID string }
			if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("concurrent submit: %d", resp.StatusCode)
				return
			}
			ids[acc.ID]++
			if resp.Header.Get("Idempotency-Replayed") == "true" {
				replayed++
			}
		}()
	}
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("8 submissions with one key created %d jobs: %v", len(ids), ids)
	}
	if replayed != dupes-1 {
		t.Errorf("replayed = %d, want %d", replayed, dupes-1)
	}

	// A different key is a different job.
	resp, body := postWithHeaders(t, s, "/v1/jobs",
		`{"kind": "run", "workload": "bzip2"}`, map[string]string{"Idempotency-Key": "dedupe-test-2"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second key: %d: %s", resp.StatusCode, body)
	}
	var other string
	for id := range ids {
		other = id
	}
	if acceptedID(t, body) == other {
		t.Error("distinct keys shared a job")
	}
}

// TestJobEventsStream subscribes to a job's SSE feed and requires the
// terminal event; a finished job answers immediately, an unknown id 404s.
func TestJobEventsStream(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	swapExec(s)
	resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := acceptedID(t, body)
	pollJob(t, s, id)

	sresp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, ev)
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Errorf("event sequence = %v, want ... done", events)
	}

	if r, _ := get(t, s, "/v1/jobs/job-999999/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", r.StatusCode)
	}
}

// TestRetryAfterFromDrainRate pins the 429 contract: once the server has
// observed job durations, a refusal's Retry-After derives from the queue
// depth over the drain rate and the body reports the queue state.
func TestRetryAfterFromDrainRate(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := startServer(t, Config{Workers: 1, QueueDepth: 1})
	swapExec(s)

	// Give the histogram one observation so the derived path is taken.
	_, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	pollJob(t, s, acceptedID(t, body))

	s.exec = blockingExec(started, release)
	defer close(release)
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d: %s", resp.StatusCode, b)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d: %s", resp.StatusCode, b)
	}
	resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second estimate", ra)
	}
	var refusal struct {
		Error             struct{ Code, Message string }
		QueueDepth        int `json:"queue_depth"`
		QueueCapacity     int `json:"queue_capacity"`
		RetryAfterSeconds int `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &refusal); err != nil {
		t.Fatalf("429 body: %v: %s", err, body)
	}
	if refusal.Error.Code != "queue_full" || refusal.QueueCapacity != 1 || refusal.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v: %s", refusal, body)
	}
}

// TestEnvelopeMemoization runs the same campaign twice on a server with an
// artifact store: the repeat must be served from the store (a hit, no new
// simulation needed for identical bytes).
func TestEnvelopeMemoization(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Workers: 2, QueueDepth: 8, Artifacts: store})

	body := `{"kind": "faults", "workloads": ["bzip2"], "mode": "vcfr", "injections": 4, "instructions": 5000}`
	resp, b := post(t, s, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d: %s", resp.StatusCode, b)
	}
	v1 := pollJob(t, s, acceptedID(t, b))
	if v1.State != JobDone {
		t.Fatalf("first job failed: %s", v1.Error)
	}
	_, hits0, puts0 := store.Stats()
	if puts0 == 0 {
		t.Fatal("finished campaign not stored")
	}

	resp, b = post(t, s, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d: %s", resp.StatusCode, b)
	}
	v2 := pollJob(t, s, acceptedID(t, b))
	if v2.State != JobDone {
		t.Fatalf("second job failed: %s", v2.Error)
	}
	if _, hits1, _ := store.Stats(); hits1 <= hits0 {
		t.Errorf("repeat was not served from the artifact store (hits %d -> %d)", hits0, hits1)
	}
	if string(v1.Result) != string(v2.Result) {
		t.Error("memoized result differs from the original")
	}
}
