package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"vcfr/internal/asm"
	"vcfr/internal/cfg"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/fleet"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
	"vcfr/internal/realbin"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/results"
	"vcfr/internal/server"
	"vcfr/internal/trace"
	"vcfr/internal/workloads"
)

// probeSpec scopes the layer probe to one workload's own inputs.
type probeSpec struct {
	programs []string
	maxInsts uint64 // per-run cap, 0 = to completion
	seedFor  func(program string) int64
	// Layers the workload's traced pass already measured.
	experimentsDone, serverDone bool
}

var modes = []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}

// modeName is the mode's metric suffix.
func modeName(m cpu.Mode) string {
	if m == cpu.ModeNaiveILR {
		return "naive-ilr"
	}
	return m.String()
}

// probeInjections is how many injected runs the probe times per program.
const probeInjections = 8

// clusterMaxInsts caps each tenant of the probe's two-tenant cluster (the
// multicore campaign's default cap).
const clusterMaxInsts = 25000

// layerProbe calls every layer's public functions directly on the
// workload's programs, each call inside a span, then derives the
// per-layer metrics from the spans. Layers the workload's own traced pass
// exercised (experiments on drc-sweep, the server on service) are not
// probed again.
func (b *bench) layerProbe(ctx context.Context, ps probeSpec) error {
	root := b.spans.begin("probe", 0)
	defer b.spans.end(root, 0)

	var ipcInsts, ipcCycles [3]uint64
	var drcLookups, drcMisses, bbHits, bbBlocks uint64
	var apps []*harness.App
	for _, name := range ps.programs {
		seed := ps.seedFor(name)
		img, err := b.probeFrontEnd(root, name)
		if err != nil {
			return err
		}
		b.timed("cfg.Build", root, func() uint64 {
			_, err = cfg.Build(img)
			return 0
		})
		if err != nil {
			return err
		}
		b.timed("ilr.Rewrite", root, func() uint64 {
			_, err = ilr.Rewrite(img, ilr.Options{Seed: seed, Spread: 8})
			return 0
		})
		if err != nil {
			return err
		}
		var app *harness.App
		b.timed("harness.Prepare", root, func() uint64 {
			app, err = harness.Prepare(name, harness.Config{Seed: seed})
			return 0
		})
		if err != nil {
			return err
		}
		apps = append(apps, app)
		b.timed("ilr.Result.Rerandomize", root, func() uint64 {
			_, err = app.R.Rerandomize(seed + 1)
			return 0
		})
		if err != nil {
			return err
		}

		var rows []results.Run
		for mi, m := range modes {
			var p *cpu.Pipeline
			var ccfg cpu.Config
			b.timed("cpu.New", root, func() uint64 {
				p, ccfg, err = app.Pipeline(m, nil)
				return 0
			})
			if err != nil {
				return err
			}
			var res cpu.Result
			b.timed("cpu.Pipeline.Run."+modeName(m), root, func() uint64 {
				res, err = p.RunContext(ctx, ps.maxInsts)
				return res.Stats.Instructions
			})
			if err != nil {
				return fmt.Errorf("%s under %v: %w", name, m, err)
			}
			ipcInsts[mi] += res.Stats.Instructions
			ipcCycles[mi] += res.Stats.Cycles
			if m == cpu.ModeVCFR {
				drcLookups += res.DRC.Lookups
				drcMisses += res.DRC.Misses
			}
			bc := p.BlockCacheStats()
			bbHits += bc.Hits
			bbBlocks += bc.Blocks
			rows = append(rows, results.Run{Workload: name, Mode: m.String(), Seed: seed, Config: ccfg, Result: res})
		}
		var body []byte
		b.timed("results.Marshal", root, func() uint64 {
			body, err = results.Marshal(results.NewRun(rows...))
			return uint64(len(body))
		})
		if err != nil {
			return err
		}

		if err := b.probeTraceAndFaults(ctx, root, app, ps.maxInsts); err != nil {
			return err
		}

		text := app.R.Orig.Text()
		b.timed("isa.Decode", root, func() uint64 {
			for off := range text.Data {
				_, _ = isa.Decode(text.Data[off:], text.Addr+uint32(off))
			}
			return uint64(len(text.Data))
		})
		b.timed("gadget.Scan", root, func() uint64 {
			return uint64(len(gadget.Scan(app.R.Orig, 0)) + len(gadget.Scan(app.R.Scattered, 0)))
		})
	}

	if _, _, calls := b.spans.layerTotal("realbin.Load"); calls == 0 {
		// No ELF program among the workload's own: time the lifter on the
		// embedded fixtures, the only real-binary inputs there are.
		for _, fx := range fixtures.All() {
			if _, err := b.probeFrontEnd(root, fx.Name); err != nil {
				return err
			}
		}
	}

	if err := b.probeCluster(ctx, root, apps); err != nil {
		return err
	}
	if !ps.experimentsDone {
		if _, err := b.experimentsPass(ctx, root, harness.Config{Workloads: ps.programs, MaxInsts: ps.maxInsts, Seed: b.seed}); err != nil {
			return err
		}
	}
	if !ps.serverDone {
		if err := b.probeServer(ctx, root, ps); err != nil {
			return err
		}
	}

	for mi, m := range modes {
		b.set(b.layers, "sim.ipc."+modeName(m), ratio(ipcInsts[mi], ipcCycles[mi]), "ratio")
	}
	b.set(b.layers, "sim.drc_miss_ratio", ratio(drcMisses, drcLookups), "ratio")
	b.set(b.layers, "cpu.bbcache_hit_ratio", ratio(bbHits, bbHits+bbBlocks), "ratio")
	b.layerMetrics()
	return nil
}

// probeFrontEnd builds one program's image the way workloads.ByName does,
// one layer per span: an ELF fixture is lifted by realbin.Load; a
// synthetic workload is generated (workloads.Source) and assembled.
func (b *bench) probeFrontEnd(root int, name string) (*program.Image, error) {
	var img *program.Image
	var err error
	if fx, ok := fixtures.ByName(name); ok {
		b.timed("realbin.Load", root, func() uint64 {
			var l *realbin.Lifted
			if l, err = realbin.Load(fx.Data, fx.Name); err == nil {
				img = l.Img
			}
			return 0
		})
		return img, err
	}
	var src string
	b.timed("workloads.Source", root, func() uint64 {
		src, err = workloads.Source(name, 1)
		return uint64(len(src))
	})
	if err != nil {
		return nil, err
	}
	b.timed("asm.Assemble", root, func() uint64 {
		img, err = asm.Assemble(name, src)
		return 0
	})
	return img, err
}

// probeTraceAndFaults captures the app's vcfr-mode reference trace, then
// times injected runs judged against it (NewInjector → Pipeline →
// SetInjector → Run → Classify, as one fault-campaign injection does).
func (b *bench) probeTraceAndFaults(ctx context.Context, root int, app *harness.App, maxInsts uint64) error {
	p, _, err := app.Pipeline(cpu.ModeVCFR, nil)
	if err != nil {
		return err
	}
	var t *trace.Trace
	b.timed("trace.Capture", root, func() uint64 {
		t, _, err = trace.CaptureContext(ctx, p, maxInsts, trace.Meta{
			Workload: app.W.Name, Mode: cpu.ModeVCFR, LayoutSeed: app.R.Opts.Seed, Spread: app.R.Opts.Spread, MaxInsts: maxInsts})
		if err != nil {
			return 0
		}
		return uint64(t.Len())
	})
	if err != nil {
		return err
	}
	b.timed("trace.Encode", root, func() uint64 { return uint64(len(t.Bytes())) })
	ref := fault.Reference{Insts: uint64(t.Len()), Halted: t.Halted, ExitCode: t.ExitCode, Out: t.Out}
	rng := rand.New(rand.NewSource(app.R.Opts.Seed))
	kinds := fault.AllKinds()
	for j := 0; j < probeInjections; j++ {
		f := fault.Fault{Kind: kinds[j%len(kinds)], Index: uint64(rng.Int63n(int64(max(ref.Insts, 1)))), Bits: 1, Seed: rng.Int63()}
		var runErr error
		b.timed("fault.InjectedRun", root, func() uint64 {
			p, _, runErr = app.Pipeline(cpu.ModeVCFR, nil)
			if runErr != nil {
				return 0
			}
			p.SetInjector(fault.NewInjector(f).Hooks())
			res, err := p.RunContext(ctx, ref.Budget())
			fault.Classify(res, err, ref)
			return res.Stats.Instructions
		})
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// probeCluster runs the first two programs as two tenants on a two-core
// scheduled cluster in vcfr mode.
func (b *bench) probeCluster(ctx context.Context, root int, apps []*harness.App) error {
	var procs []cpu.ClusterProc
	for len(procs) < 2 {
		a := apps[len(procs)%len(apps)]
		procs = append(procs, cpu.ClusterProc{Img: a.R.VCFR, Trans: a.R.Tables, RandRA: a.R.RandRA, Input: a.W.Input, Mode: cpu.ModeVCFR})
	}
	cl, err := cpu.NewScheduledCluster(cpu.DefaultConfig(cpu.ModeVCFR), cpu.SchedConfig{Cores: 2}, procs)
	if err != nil {
		return err
	}
	b.timed("cpu.Cluster.Run", root, func() uint64 {
		var out []cpu.Result
		out, err = cl.RunContext(ctx, clusterMaxInsts)
		var n uint64
		for _, r := range out {
			n += r.Stats.Instructions
		}
		return n
	})
	return err
}

// probeServer starts an in-process server with a trace cache (as vcfrd
// does), submits one capped vcfr run job per program and reads each job's
// server-side timestamps.
func (b *bench) probeServer(ctx context.Context, root int, ps probeSpec) error {
	r := harness.NewRunner(0)
	r.Traces = trace.NewCache(256 << 20)
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Workers: b.workers, Runner: r})
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	client := &fleet.Client{Base: "http://" + srv.Addr(), HTTP: hc}
	var ts []jobTiming
	for _, name := range ps.programs {
		seed := ps.seedFor(name)
		t, _, err := driveJob(ctx, client, jobSpec{server.JobRun, server.SimRequest{
			Workload: name, Mode: "vcfr", Seed: &seed, Instructions: ps.maxInsts}}, true)
		if err != nil {
			return fmt.Errorf("server probe %s: %w", name, err)
		}
		ts = append(ts, t)
	}
	hits, misses, _, _ := r.Traces.Stats()
	if _, ok := b.layers["trace.cache_hit_ratio"]; !ok {
		b.set(b.layers, "trace.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	}
	b.addJobSpans(ts, root)
	return nil
}

// layerMetrics derives the span-based per-layer metrics.
func (b *bench) layerMetrics() {
	t := b.spans
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	total := func(name, metric string) {
		self, _, _ := t.layerTotal(name)
		b.set(b.layers, metric, ms(self), "ms")
	}
	perCall := func(name, metric, unit string, scale time.Duration) {
		self, _, calls := t.layerTotal(name)
		b.set(b.layers, metric, float64(self)/float64(scale)/float64(max(calls, 1)), unit)
	}
	perWork := func(name, metric, unit string) {
		self, work, _ := t.layerTotal(name)
		b.set(b.layers, metric, float64(self.Nanoseconds())/float64(max(work, 1)), unit)
	}
	total("harness.Prepare", "harness.prepare_ms")
	total("workloads.Source", "workloads.build_ms")
	total("asm.Assemble", "asm.assemble_ms")
	perCall("realbin.Load", "realbin.load_us", "us", time.Microsecond)
	total("cfg.Build", "cfg.build_ms")
	total("ilr.Rewrite", "ilr.rewrite_ms")
	perCall("ilr.Result.Rerandomize", "ilr.rerandomize_ms", "ms", time.Millisecond)
	for _, m := range modes {
		perWork("cpu.Pipeline.Run."+modeName(m), "cpu.ns_per_inst."+modeName(m), "ns")
	}
	perCall("cpu.New", "cpu.new_us", "us", time.Microsecond)
	perWork("cpu.Cluster.Run", "cpu.cluster_ns_per_inst", "ns")
	total("trace.Capture", "trace.capture_ms")
	_, encoded, _ := t.layerTotal("trace.Encode")
	_, captured, _ := t.layerTotal("trace.Capture")
	b.set(b.layers, "trace.bytes_per_inst", float64(encoded)/float64(max(captured, 1)), "B")
	perCall("fault.InjectedRun", "fault.injected_run_us", "us", time.Microsecond)
	perWork("isa.Decode", "isa.decode_ns", "ns")
	total("gadget.Scan", "gadget.scan_ms")
	perCall("results.Marshal", "results.marshal_us", "us", time.Microsecond)
	_, envBytes, envs := t.layerTotal("results.Marshal")
	b.set(b.layers, "results.envelope_kb", float64(envBytes)/1024/float64(max(envs, 1)), "KB")
	for _, id := range experimentIDs {
		self, _, _ := t.layerTotal("harness.experiment." + id)
		b.set(b.layers, "harness.experiment_s."+id, self.Seconds(), "s")
	}
}
