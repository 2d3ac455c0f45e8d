package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"vcfr/internal/artifact"
	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// JobKind selects what a job computes.
type JobKind string

// Job kinds.
const (
	// JobRun is one workload under one or more modes with a fixed layout
	// seed — the service twin of `vcfrsim -stats-json`.
	JobRun JobKind = "run"
	// JobSweep is a full stats sweep with per-cell derived seeds — the
	// service twin of `experiments -stats-json`.
	JobSweep JobKind = "sweep"
	// JobFaults is a fault-injection campaign — the service twin of
	// `campaignsim -kind faults -json`.
	JobFaults JobKind = "faults"
	// JobAttacks is an adversary-in-the-loop attack campaign — the service
	// twin of `campaignsim -kind attacks -json`.
	JobAttacks JobKind = "attacks"
	// JobMulticore is a multi-tenant interference campaign — the service
	// twin of `campaignsim -kind multicore -json`.
	JobMulticore JobKind = "multicore"
)

// JobState is a job's position in its lifecycle. Transitions are strictly
// queued -> running -> (done | failed); there are no other edges.
type JobState string

// Job states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// SimRequest is the body of POST /v1/simulate and, with a kind, of POST
// /v1/jobs; campaignsim fills one from its flags. Absent fields take the
// matching CLI's defaults (documented per field), which is what keeps
// service responses byte-identical to CLI output. The numeric
// tuning knobs are pointers so that presence, not value, selects the
// default: `"seed": 0` means literally seed 0 (handled downstream exactly
// as the CLIs handle `-seed 0`), while omitting seed means the default.
type SimRequest struct {
	// Workload names the built-in workload to simulate (required for
	// simulate; ignored by sweep).
	Workload string `json:"workload,omitempty"`
	// Workloads restricts a sweep to a subset (default: all 11 SPEC
	// analogs). Ignored by simulate.
	Workloads []string `json:"workloads,omitempty"`
	// Mode is baseline | naive | vcfr | all. Default "vcfr" (vcfrsim's
	// default). Ignored by sweep, which always runs all three modes.
	Mode string `json:"mode,omitempty"`
	// Seed is the randomization seed. Default 1 for simulate (vcfrsim's
	// -seed default) and 42 for sweep (experiments' -seed default).
	Seed *int64 `json:"seed,omitempty"`
	// Spread is the ILR scatter factor. Default 8.
	Spread *int `json:"spread,omitempty"`
	// Scale multiplies workload iteration counts. Default 1.
	Scale *int `json:"scale,omitempty"`
	// Instructions caps simulated instructions per run. 0 = to completion.
	Instructions uint64 `json:"instructions,omitempty"`
	// DRC is the De-Randomization Cache entry count. Default 128.
	DRC *int `json:"drc,omitempty"`
	// Width is the issue width. Default 1 (the paper's core).
	Width *int `json:"width,omitempty"`
	// CtxSwitchEvery flushes process-private state every N instructions.
	// Default 0 (never).
	CtxSwitchEvery uint64 `json:"ctxswitch,omitempty"`
	// Interval samples the statistics spine every N simulated instructions,
	// adding the per-window `intervals` series to every result row (the
	// service twin of vcfrsim -interval). Default 0 (off).
	Interval uint64 `json:"interval,omitempty"`
	// Injections per (workload, mode) cell of a fault campaign. Default
	// 120. Ignored by simulate and sweep.
	Injections int `json:"injections,omitempty"`
	// Faults restricts a campaign to a subset of the fault model (kind
	// names as in internal/fault). Default: the full model. Ignored by
	// simulate and sweep.
	Faults []string `json:"faults,omitempty"`
	// Bits flipped per injection. Default 1. Ignored by simulate and sweep.
	Bits int `json:"bits,omitempty"`
	// Payloads restricts an attack campaign to a subset of the payload
	// templates (names as in internal/attack). Default: all three. Only
	// attacks jobs read it.
	Payloads []string `json:"payloads,omitempty"`
	// LeakBudget is the attack campaign's canonical disclosure allowance.
	// Default 16. Only attacks jobs read it.
	LeakBudget int `json:"leak_budget,omitempty"`
	// MaxLeaks caps each attack arm's leak ops. Default 0 (derive from the
	// cell's universe). Only attacks jobs read it.
	MaxLeaks int `json:"max_leaks,omitempty"`
	// RerandEvery is the re-randomization period in leak ops. Default 5.
	// Only attacks jobs read it.
	RerandEvery int `json:"rerand_every,omitempty"`
	// AdvanceInsts is how many instructions the victim executes between leak
	// ops. Default 2000. Only attacks jobs read it.
	AdvanceInsts uint64 `json:"advance_insts,omitempty"`
	// Cells restricts a multicore campaign to a cores×tenants grid subset
	// ("2c4t" form, as campaignsim -cells). Default: the canonical grid.
	// Only multicore jobs read it.
	Cells []string `json:"cells,omitempty"`
	// Quantum is the multicore scheduler's time slice in committed
	// instructions. Default 10000. Only multicore jobs read it.
	Quantum uint64 `json:"quantum,omitempty"`
	// TimeoutMS bounds the job's execution wall clock, refining the
	// server's default job timeout. 0 = server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize applies the kind's CLI defaults to absent fields and validates
// the request. After it returns nil, every pointer field is non-nil.
func (r *SimRequest) normalize(kind JobKind) error {
	spec, err := lookupKind(kind)
	if err != nil {
		return err
	}
	if r.Mode == "" {
		r.Mode = "vcfr"
		if spec.campaign {
			r.Mode = "all"
		}
	}
	modes, err := cpu.ParseModes(r.Mode)
	if err != nil {
		return err
	}
	if spec.check != nil {
		if err := spec.check(r); err != nil {
			return err
		}
	}
	if r.Seed == nil {
		seed := spec.seed
		r.Seed = &seed
	}
	if r.Spread == nil {
		spread := 8
		r.Spread = &spread
	}
	if r.Scale == nil {
		scale := 1
		r.Scale = &scale
	}
	if r.DRC == nil {
		drc := 128
		r.DRC = &drc
	}
	if r.Width == nil {
		width := 1
		r.Width = &width
	}
	for _, w := range r.Workloads {
		if _, err := workloads.ByName(w, 1); err != nil {
			return err
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	// Machine-config bounds live in exactly one place — cpu.Config.Validate,
	// the same check vcfrsim applies to its flags — so a bad drc or width in a
	// request body fails with the same message a bad CLI flag gets.
	if !spec.requestModes {
		modes = cpu.AllModes()
	}
	mutate := r.mutate()
	for _, m := range modes {
		c := cpu.DefaultConfig(m)
		mutate(&c)
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// mutate returns the machine-config mutation the request describes —
// field-for-field the same closure vcfrsim builds from its flags. Call
// only after normalize has filled the pointer fields.
func (r *SimRequest) mutate() func(*cpu.Config) {
	drc, width, ctxEvery, interval := *r.DRC, *r.Width, r.CtxSwitchEvery, r.Interval
	return func(c *cpu.Config) {
		c.DRCEntries = drc
		c.IssueWidth = width
		c.ContextSwitchEvery = ctxEvery
		c.SampleEvery = interval
	}
}

// config maps the request onto a harness.Config. Call only after normalize
// has filled the pointer fields.
func (r *SimRequest) config() harness.Config {
	return harness.Config{
		Workloads: r.Workloads,
		Scale:     *r.Scale,
		MaxInsts:  r.Instructions,
		Seed:      *r.Seed,
		Spread:    *r.Spread,
	}
}

// Job is one queued or executing request. State, timestamps, and the result
// are guarded by mu; done is closed exactly once when the job leaves the
// running state, which is what synchronous waiters block on.
type Job struct {
	ID   string
	Kind JobKind
	Req  SimRequest

	// seq is the monotonic submission number embedded in ID, kept numeric
	// for cursor comparisons (string compare would wrap past job-999999).
	seq uint64
	// ctx is cancelled by DELETE /v1/jobs/{id}; the per-job execution
	// deadline derives from it, so cancellation reaches a running
	// simulation mid-loop. cancel is safe to call repeatedly.
	ctx    context.Context
	cancel context.CancelFunc
	// idemKey is the Idempotency-Key that created this job ("" if none);
	// retention eviction uses it to drop the dedupe entry with the job.
	idemKey string

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	envelope []byte                             // marshaled results.Envelope, set when state == JobDone
	progress *harness.Progress                  // live sweep completion state, set while running
	subs     map[chan harness.Progress]struct{} // SSE subscribers; buffered(1), coalescing

	done chan struct{}
}

func newJob(id string, seq uint64, kind JobKind, req SimRequest) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:      id,
		Kind:    kind,
		Req:     req,
		seq:     seq,
		ctx:     ctx,
		cancel:  cancel,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns the channel closed when the job finishes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Envelope returns the marshaled result bytes and error text; valid only
// after Done.
func (j *Job) Envelope() (body []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.envelope, j.err
}

// setProgress records the job's live completion state; it is the progress
// callback of harness.StatsSweepProgress and fault.RunCampaign, invoked
// from worker goroutines. Subscribers get a coalescing notification: each
// channel holds at most the latest update, so a slow SSE client never
// backpressures the simulation.
func (j *Job) setProgress(p harness.Progress) {
	j.mu.Lock()
	j.progress = &p
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
	j.mu.Unlock()
}

// subscribe registers a progress listener, primed with the latest update if
// one exists.
func (j *Job) subscribe() chan harness.Progress {
	ch := make(chan harness.Progress, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan harness.Progress]struct{})
	}
	j.subs[ch] = struct{}{}
	if j.progress != nil {
		ch <- *j.progress
	}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan harness.Progress) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// view is the JSON shape GET /v1/jobs/{id} serves.
type jobView struct {
	ID       string     `json:"id"`
	Kind     JobKind    `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Progress is the job's live completion state (cells or injections
	// finished, total, simulated instructions so far), populated while a
	// sweep or fault campaign runs and retained on its final view.
	Progress *harness.Progress `json:"progress,omitempty"`
	Result   json.RawMessage   `json:"result,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.ID, Kind: j.Kind, State: j.state, Created: j.created, Error: j.err}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state == JobDone {
		v.Result = json.RawMessage(j.envelope)
	}
	return v
}

// worker drains the queue until it is closed (graceful shutdown closes the
// queue only after intake stops, so every accepted job still executes).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation and a per-job deadline. A
// panic anywhere in the simulator fails this job and this job only; the
// worker, the queue, and every other job keep going.
func (s *Server) runJob(j *Job) {
	start := time.Now()
	j.mu.Lock()
	j.state = JobRunning
	j.started = start
	queueWait := start.Sub(j.created)
	j.mu.Unlock()
	s.metrics.jobStarted(queueWait)

	timeout := s.cfg.JobTimeout
	if ms := j.Req.TimeoutMS; ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	// The deadline derives from the job's own cancellable context, so a
	// DELETE /v1/jobs/{id} reaches a running simulation exactly like an
	// expired deadline does.
	ctx := j.ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	body, err := func() (body []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.jobPanicked()
				err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		return s.executeBytes(ctx, j)
	}()

	now := time.Now()
	j.mu.Lock()
	j.finished = now
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
		j.envelope = body
	}
	j.mu.Unlock()
	s.metrics.jobFinished(err == nil, now.Sub(start))
	close(j.done)
	s.retireJob(j)
}

// executeBytes produces a job's final envelope bytes. Three paths, in
// precedence order: a configured Executor (the fleet coordinator) returns
// merged bytes verbatim; a configured artifact store may already hold the
// envelope for this exact normalized request (an identical campaign
// finished somewhere in the fleet — serve it without simulating); else the
// job executes locally and, when it ran to completion, its envelope is
// stored for peers. Partial results (cancelled or timed-out jobs) are
// never memoized — a partial envelope is an artifact of this request's
// deadline, not of the request identity.
func (s *Server) executeBytes(ctx context.Context, j *Job) ([]byte, error) {
	if s.cfg.Executor != nil {
		return s.cfg.Executor(ctx, j.Kind, j.Req, j.setProgress)
	}
	key := ""
	if s.cfg.Artifacts != nil || s.cfg.ArtifactPeer != nil {
		key = envelopeKey(j.Kind, j.Req)
		if body, ok := s.envelopeLookup(key); ok {
			return body, nil
		}
	}
	env, err := s.exec(ctx, j)
	if err != nil {
		return nil, err
	}
	body, err := results.Marshal(env)
	if err != nil {
		return nil, err
	}
	if key != "" && ctx.Err() == nil {
		s.envelopeStore(key, body)
	}
	return body, nil
}

// envelopeKey is the content address of a finished result: the job kind
// plus the normalized request (pointer fields filled, defaults applied),
// minus the execution deadline — a timeout changes whether a request
// completes, never what its completed result is.
func envelopeKey(kind JobKind, req SimRequest) string {
	req.TimeoutMS = 0
	b, _ := json.Marshal(req)
	h := sha256.Sum256(append([]byte(string(kind)+"\x00"), b...))
	return hex.EncodeToString(h[:])
}

func (s *Server) envelopeLookup(key string) ([]byte, bool) {
	if s.cfg.Artifacts != nil {
		if body, ok := s.cfg.Artifacts.Get(artifact.EnvelopeNS, key); ok {
			return body, true
		}
	}
	if s.cfg.ArtifactPeer != nil {
		if body, ok := s.cfg.ArtifactPeer.Get(artifact.EnvelopeNS, key); ok {
			if s.cfg.Artifacts != nil {
				_ = s.cfg.Artifacts.Put(artifact.EnvelopeNS, key, body)
			}
			return body, true
		}
	}
	return nil, false
}

func (s *Server) envelopeStore(key string, body []byte) {
	if s.cfg.Artifacts != nil {
		_ = s.cfg.Artifacts.Put(artifact.EnvelopeNS, key, body)
	}
	if s.cfg.ArtifactPeer != nil {
		_ = s.cfg.ArtifactPeer.Put(artifact.EnvelopeNS, key, body)
	}
}

// execute is the production job executor (tests substitute s.exec): the
// service is a thin HTTP shell around the kind table's run functions, the
// same code campaignsim calls through Run, which is what pins service
// responses to CLI output byte for byte.
func (s *Server) execute(ctx context.Context, j *Job) (results.Envelope, error) {
	spec, err := lookupKind(j.Kind)
	if err != nil {
		return results.Envelope{}, err
	}
	rep, err := spec.run(ctx, s.runner, &j.Req, j.setProgress)
	if err != nil {
		return results.Envelope{}, err
	}
	s.metrics.jobReported(rep)
	return rep.Envelope(), nil
}
