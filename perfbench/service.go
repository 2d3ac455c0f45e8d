package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vcfr/internal/attack"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/fleet"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/server"
)

// servicePrograms are the workloads vcfrload's tiny-job mix rotates over.
var servicePrograms = []string{"bzip2", "sjeng", "xalan"}

// serviceMaxInsts is the tiny jobs' instruction cap.
const serviceMaxInsts = 2000

// jobSpec is one entry of the request mix.
type jobSpec struct {
	kind server.JobKind
	req  server.SimRequest
}

// tinyJobMix is vcfrload's default mix (run=8, sweep=1, faults=1,
// attacks=1) with every job carrying the benchmark seed.
func tinyJobMix(seed int64) []jobSpec {
	widx := 0
	pick := func() string { w := servicePrograms[widx%len(servicePrograms)]; widx++; return w }
	var specs []jobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, jobSpec{server.JobRun, server.SimRequest{Workload: pick(), Mode: "vcfr", Instructions: serviceMaxInsts}})
	}
	specs = append(specs,
		jobSpec{server.JobSweep, server.SimRequest{Workloads: []string{pick()}, Instructions: serviceMaxInsts}},
		jobSpec{server.JobFaults, server.SimRequest{Workloads: []string{pick()}, Injections: 2, Instructions: serviceMaxInsts}},
		jobSpec{server.JobAttacks, server.SimRequest{Workloads: []string{pick()}, MaxLeaks: 4, AdvanceInsts: 500, Instructions: serviceMaxInsts}})
	for i := range specs {
		s := seed
		specs[i].req.Seed = &s
	}
	return specs
}

// jobReference is what the library produces in-process for one spec: the
// simulated instructions it costs and, for run jobs, the envelope bytes
// the service must return.
type jobReference struct {
	insts         uint64
	envelope      []byte
	leaks, chains uint64 // attack jobs
}

// references computes every distinct spec's in-process reference. Run
// jobs go through harness.SimulateRuns exactly as vcfrsim -stats-json
// does; the other kinds only contribute their instruction counts.
func references(ctx context.Context, specs []jobSpec, seed int64) ([]jobReference, error) {
	out := make([]jobReference, len(specs))
	for i, s := range specs {
		r := harness.NewRunner(1)
		var pm progressMax
		switch s.kind {
		case server.JobRun:
			cfg := harness.Config{Scale: 1, MaxInsts: s.req.Instructions, Seed: seed, Spread: 8}
			rows, err := harness.SimulateRuns(ctx, r, s.req.Workload, []cpu.Mode{cpu.ModeVCFR}, cfg, func(c *cpu.Config) {
				c.DRCEntries, c.IssueWidth, c.ContextSwitchEvery, c.SampleEvery = 128, 1, 0, 0
			})
			if err != nil {
				return nil, err
			}
			body, err := results.Marshal(results.NewRun(rows...))
			if err != nil {
				return nil, err
			}
			out[i] = jobReference{insts: rows[0].Result.Stats.Instructions, envelope: body}
		case server.JobSweep:
			rows, err := harness.StatsSweep(ctx, r, harness.Config{Workloads: s.req.Workloads, MaxInsts: s.req.Instructions, Seed: seed})
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				out[i].insts += row.Result.Stats.Instructions
			}
		case server.JobFaults:
			if _, err := fault.RunCampaign(ctx, r, fault.Config{Workloads: s.req.Workloads, Injections: s.req.Injections,
				MaxInsts: s.req.Instructions, Seed: seed}, pm.observe); err != nil {
				return nil, err
			}
			out[i].insts = pm.insts
		case server.JobAttacks:
			rep, err := attack.RunCampaign(ctx, r, attack.Config{Workloads: s.req.Workloads, MaxLeaks: s.req.MaxLeaks,
				AdvanceInsts: s.req.AdvanceInsts, MaxInsts: s.req.Instructions, Seed: seed}, pm.observe)
			if err != nil {
				return nil, err
			}
			out[i].insts, out[i].leaks, out[i].chains = pm.insts, rep.Totals.Leaks, rep.Totals.ChainsBuilt
		}
	}
	return out, nil
}

// jobTiming is one job's client-side and server-side timing.
type jobTiming struct {
	submit, latency            time.Duration
	sent                       time.Time
	created, started, finished time.Time // from GET /v1/jobs/{id}; traced runs only
	retries                    int
}

// driveJob runs one job start to finish the way vcfrload does: submit
// (retrying 429/503 refusals), follow the event stream, fetch the result.
// With view set it also reads the job's server-side timestamps.
func driveJob(ctx context.Context, c *fleet.Client, s jobSpec, view bool) (jobTiming, []byte, error) {
	var t jobTiming
	t.sent = time.Now()
	var id string
	for {
		var err error
		id, err = c.Submit(ctx, s.kind, s.req)
		if err == nil {
			break
		}
		refused := strings.Contains(err.Error(), "429") || strings.Contains(err.Error(), "503")
		if !refused || t.retries >= 400 || ctx.Err() != nil {
			return t, nil, err
		}
		t.retries++
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
			return t, nil, ctx.Err()
		}
	}
	t.submit = time.Since(t.sent)
	if err := c.Wait(ctx, id, nil); err != nil {
		return t, nil, err
	}
	body, err := c.Result(ctx, id)
	t.latency = time.Since(t.sent)
	if err != nil || !view {
		return t, body, err
	}
	var v struct {
		Created  time.Time  `json:"created"`
		Started  *time.Time `json:"started"`
		Finished *time.Time `json:"finished"`
	}
	if err := getJSON(ctx, c.HTTP, c.Base+"/v1/jobs/"+id, &v); err != nil {
		return t, body, err
	}
	if v.Started == nil || v.Finished == nil {
		return t, body, fmt.Errorf("job %s: view lacks started/finished times", id)
	}
	t.created, t.started, t.finished = v.Created, *v.Started, *v.Finished
	return t, body, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// vcfrdProc is one running vcfrd.
type vcfrdProc struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // process start to first healthy response
	stderr sync.WaitGroup
}

// startVcfrd launches a fresh vcfrd on an ephemeral port and waits until
// it answers /healthz.
func startVcfrd(ctx context.Context, bin string, workers int, hc *http.Client) (*vcfrdProc, error) {
	if bin == "" {
		return nil, errors.New("the service workload needs --vcfrd")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vcfrd: %w", err)
	}
	p := &vcfrdProc{cmd: cmd}
	addrc := make(chan string, 1)
	p.stderr.Add(1)
	go func() {
		defer p.stderr.Done()
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "vcfrd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.stop()
			return nil, errors.New("vcfrd exited before listening")
		}
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("vcfrd did not report its address within 30s")
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			p.stop()
			return nil, errors.New("vcfrd never answered /healthz")
		}
		time.Sleep(time.Millisecond)
	}
	p.setup = time.Since(t0)
	return p, nil
}

// stop sends SIGTERM (vcfrd drains and exits) and waits for the process
// and its stderr reader; a process still alive after 30s is killed.
func (p *vcfrdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.stderr.Wait()
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// servicePass is one fresh-server pass of the closed loop.
type servicePass struct {
	start                time.Time
	setup, wall          time.Duration
	timings              []jobTiming
	specOf               []int // spec index of each completed job
	failed               int
	rssMB                float64
	traceHits, traceMiss uint64
	allocBytes, gcCycles uint64 // the server's, from its heap profile header
}

// runServicePass starts a fresh vcfrd and drives jobs through it with
// workers closed-loop clients, checking each run job's envelope against
// the in-process reference.
func (b *bench) runServicePass(ctx context.Context, specs []jobSpec, refs []jobReference, jobs int, view bool) (*servicePass, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.workers}}
	defer hc.CloseIdleConnections()
	proc, err := startVcfrd(ctx, b.vcfrd, b.workers, hc)
	if err != nil {
		return nil, err
	}
	defer proc.stop()
	client := &fleet.Client{Base: proc.base, HTTP: hc}
	p := &servicePass{setup: proc.setup}

	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
		mism []string
	)
	p.start = time.Now()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= jobs {
					return
				}
				si := i % len(specs)
				t, body, err := driveJob(ctx, client, specs[si], view)
				mu.Lock()
				switch {
				case err != nil:
					p.failed++
					if len(mism) < 3 {
						mism = append(mism, err.Error())
					}
				case refs[si].envelope != nil && !bytes.Equal(body, refs[si].envelope):
					p.failed++
					if len(mism) < 3 {
						mism = append(mism, fmt.Sprintf("%s job on %s: envelope differs from the in-process result", specs[si].kind, specs[si].req.Workload))
					}
				default:
					p.timings = append(p.timings, t)
					p.specOf = append(p.specOf, si)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	if len(mism) > 0 {
		b.notes["service_failures"] = mism
	}
	if view {
		p.traceHits, p.traceMiss, err = traceCacheCounters(ctx, hc, proc.base)
		if err != nil {
			return nil, err
		}
	}
	p.allocBytes, p.gcCycles, err = serverMemStats(ctx, hc, proc.base)
	if err != nil {
		return nil, err
	}
	p.rssMB, err = peakRSSMB(proc.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// serverMemStats reads vcfrd's cumulative allocated bytes and GC count from
// the runtime.MemStats header of its /debug/pprof heap profile.
func serverMemStats(ctx context.Context, hc *http.Client, base string) (alloc, gcs uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		switch k {
		case "# TotalAlloc":
			alloc, err = strconv.ParseUint(v, 10, 64)
			seen++
		case "# NumGC":
			gcs, err = strconv.ParseUint(v, 10, 64)
			seen++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("heap profile %s: %w", k, err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if seen != 2 {
		return 0, 0, errors.New("heap profile lacks the TotalAlloc/NumGC header")
	}
	return alloc, gcs, nil
}

// traceCacheCounters reads vcfrd's trace cache hit and miss counters from
// /metrics.
func traceCacheCounters(ctx context.Context, hc *http.Client, base string) (hits, misses uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "vcfrd_trace_cache_hits_total":
			hits, _ = strconv.ParseUint(val, 10, 64)
		case "vcfrd_trace_cache_misses_total":
			misses, _ = strconv.ParseUint(val, 10, 64)
		}
	}
	return hits, misses, sc.Err()
}

func runService(ctx context.Context, b *bench) error {
	specs := tinyJobMix(b.seed)
	refs, err := references(ctx, specs, b.seed)
	if err != nil {
		return fmt.Errorf("in-process references: %w", err)
	}
	for i, r := range refs {
		if r.envelope != nil {
			b.digests["run:"+specs[i].req.Workload] = shortHash(r.envelope)
		}
		b.counts["sim.instructions."+string(specs[i].kind)+":"+strings.Join(append([]string{specs[i].req.Workload}, specs[i].req.Workloads...), "")] = r.insts
	}
	jobs := 600
	if b.small {
		jobs = 22
	}
	b.notes["jobs_per_pass"] = jobs
	b.notes["clients"] = b.workers

	var passes []*servicePass
	start := time.Now()
	for len(passes) == 0 || (!b.traced && time.Since(start) < b.budget) {
		p, err := b.runServicePass(ctx, specs, refs, jobs, false)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}

	passInsts := func(p *servicePass) uint64 {
		var n uint64
		for _, si := range p.specOf {
			n += refs[si].insts
		}
		return n
	}
	var setups, walls, rss, rps, simRate []float64
	var lat []float64
	var failed, retries int
	for _, p := range passes {
		insts := passInsts(p)
		for _, t := range p.timings {
			lat = append(lat, float64(t.latency)/float64(time.Millisecond))
			retries += t.retries
			b.op(true)
		}
		for i := 0; i < p.failed; i++ {
			b.op(false)
		}
		failed += p.failed
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		b.passes = append(b.passes, p.wall.Seconds())
		rss = append(rss, p.rssMB)
		rps = append(rps, float64(len(p.timings))/p.wall.Seconds())
		simRate = append(simRate, float64(insts)/1e6/p.wall.Seconds())
	}
	b.verify("every job completed with the in-process envelope", failed == 0, "%d of %d jobs failed", failed, len(lat)+failed)
	sort.Float64s(lat)
	pct, tail := tailPercentile(lat)
	b.set(b.extras, "sim_minst_per_s", median(simRate), "Minst/s")
	b.set(b.extras, "rps", median(rps), "1/s")
	b.set(b.extras, "latency_p50_ms", nearestRank(lat, 50), "ms")
	b.set(b.extras, "latency_p99_ms", nearestRank(lat, 99), "ms")
	b.notes["latency_samples"] = len(lat)
	b.notes["latency_tail"] = map[string]float64{"percentile": pct, "ms": tail}
	b.set(b.extras, "submit_retries", float64(retries), "count")

	if !b.traced {
		b.set(b.e2e, "setup_s", median(setups), "s")
		b.set(b.e2e, "wall_s", median(walls), "s")
		b.set(b.e2e, "peak_rss_mb", median(rss), "MB")
		return nil
	}

	tp, err := b.runServicePass(ctx, specs, refs, jobs, true)
	if err != nil {
		return err
	}
	b.verify("traced pass: every job completed with the in-process envelope", tp.failed == 0, "%d jobs failed", tp.failed)
	b.notes["tracing_overhead_s"] = tp.wall.Seconds() - passes[0].wall.Seconds()
	root := b.spans.add("service.pass", 0, tp.start, tp.start.Add(tp.wall), 0)
	b.addJobSpans(tp.timings, root)
	b.set(b.layers, "trace.cache_hit_ratio", ratio(tp.traceHits, tp.traceHits+tp.traceMiss), "ratio")
	var leaks, chains uint64
	for _, si := range tp.specOf {
		leaks += refs[si].leaks
		chains += refs[si].chains
	}
	b.set(b.layers, "go.alloc_bytes_per_inst", float64(passes[0].allocBytes)/float64(passInsts(passes[0])), "B")
	b.set(b.layers, "go.gc_cycles", float64(passes[0].gcCycles), "count")
	b.set(b.layers, "attack.leaks", float64(leaks), "count")
	b.set(b.layers, "attack.chains_built", float64(chains), "count")
	return b.layerProbe(ctx, probeSpec{
		programs:   b.pick(servicePrograms, []string{"bzip2"}),
		maxInsts:   serviceMaxInsts,
		seedFor:    func(string) int64 { return b.seed },
		serverDone: true,
	})
}

// addJobSpans turns job timings into server-layer spans: the client's
// submit call, and the server-side queue wait and run, under one span per
// job covering its whole client latency.
func (b *bench) addJobSpans(ts []jobTiming, parent int) {
	for _, t := range ts {
		job := b.spans.add("server.job", parent, t.sent, t.sent.Add(t.latency), 0)
		b.spans.add("server.submit", job, t.sent, t.sent.Add(t.submit), 0)
		b.spans.add("server.queue_wait", job, t.created, t.started, 0)
		b.spans.add("server.run", job, t.started, t.finished, 0)
	}
	var submit, queue, run, overhead []float64
	for _, t := range ts {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		submit = append(submit, ms(t.submit))
		queue = append(queue, ms(t.started.Sub(t.created)))
		run = append(run, ms(t.finished.Sub(t.started)))
		overhead = append(overhead, ms(t.latency-t.finished.Sub(t.created)))
	}
	b.set(b.layers, "server.submit_ms", median(submit), "ms")
	b.set(b.layers, "server.queue_wait_ms", median(queue), "ms")
	b.set(b.layers, "server.run_ms", median(run), "ms")
	b.set(b.layers, "server.overhead_ms", median(overhead), "ms")
}
