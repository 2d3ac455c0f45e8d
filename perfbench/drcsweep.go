package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// drcPrograms is the drc-sweep's input set: the 11 SPEC analogs and the 3
// ELF fixtures.
var drcPrograms = append(append([]string{}, workloads.SpecNames...), workloads.ELFNames()...)

// runsPerProgram is how many complete simulations fig12+fig13+fig14 make
// of each program: fig12 naive+vcfr, fig13 baseline + vcfr at 3 DRC
// sizes, fig14 vcfr at 2 DRC sizes.
const runsPerProgram = 8

// setupReps is how many times set-up is repeated to report its median.
const setupReps = 11

// measureSetup times harness.Prepare of every program, setupReps times,
// and records the median as setup_s.
func (b *bench) measureSetup(programs []string, seedFor func(string) int64) error {
	reps := setupReps
	if b.small {
		reps = 1
	}
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, name := range programs {
			if _, err := harness.Prepare(name, harness.Config{Seed: seedFor(name)}); err != nil {
				return err
			}
		}
		ds = append(ds, time.Since(t0))
	}
	b.set(b.e2e, "setup_s", medianDur(ds), "s")
	return nil
}

// experimentIDs are the drc-sweep's experiments.
var experimentIDs = []string{"fig12", "fig13", "fig14"}

// experimentsPass runs fig12+fig13+fig14 concurrently through one fresh
// runner with nproc workers, adds a span per experiment, and returns the
// rendered tables (error rows included).
func (b *bench) experimentsPass(ctx context.Context, parent int, hcfg harness.Config) ([]*harness.Table, error) {
	var exps []harness.Experiment
	for _, id := range experimentIDs {
		e, err := harness.ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	start := time.Now()
	out := harness.NewRunner(b.workers).RunAll(ctx, exps, hcfg)
	var tables []*harness.Table
	for _, r := range out {
		b.spans.add("harness.experiment."+r.Experiment.ID, parent, start, start.Add(r.Elapsed), 0)
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Experiment.ID, r.Err)
		}
		tables = append(tables, r.Table)
	}
	return tables, nil
}

// errorRows counts the cells that failed ("error: ..." rows).
func errorRows(tables []*harness.Table) (rows, errs int, first string) {
	for _, t := range tables {
		for _, row := range t.Rows {
			if row[0] == "average" {
				continue
			}
			rows++
			if len(row) > 1 && strings.HasPrefix(row[1], "error: ") {
				errs++
				if first == "" {
					first = t.ID + ": " + row[0] + " " + row[1]
				}
			}
		}
	}
	return rows, errs, first
}

func renderAll(tables []*harness.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Render())
	}
	return sb.String()
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

func runDRCSweep(ctx context.Context, b *bench) error {
	programs := b.pick(drcPrograms, []string{"bzip2", "elf-fib"})
	if err := b.measureSetup(programs, func(string) int64 { return b.seed }); err != nil {
		return err
	}
	hcfg := harness.Config{Workloads: programs, Seed: b.seed}
	insts, err := b.checkModes(ctx, hcfg)
	if err != nil {
		return err
	}
	simInsts := runsPerProgram * insts

	spans := b.spans
	b.spans = nil // the timed passes run untraced
	var walls, rss []float64
	var first string
	var ms0, ms1 runtime.MemStats
	var allocBytes, gcCycles uint64
	start := time.Now()
	for len(walls) == 0 || (!b.traced && time.Since(start) < b.budget) {
		var tables []*harness.Table
		wall, peak, err := passPeakRSS(func() (err error) {
			runtime.ReadMemStats(&ms0)
			tables, err = b.experimentsPass(ctx, 0, hcfg)
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		rss = append(rss, peak)
		allocBytes, gcCycles = ms1.TotalAlloc-ms0.TotalAlloc, uint64(ms1.NumGC-ms0.NumGC)
		walls = append(walls, wall.Seconds())
		rows, errs, firstErr := errorRows(tables)
		for i := 0; i < rows; i++ {
			b.op(i >= errs)
		}
		b.verify("drc-sweep pass has no error rows", errs == 0, "%d error rows; first: %s", errs, firstErr)
		text := renderAll(tables)
		if first == "" {
			first = text
			b.digests["fig12+fig13+fig14"] = shortHash([]byte(text))
		} else {
			b.verify("drc-sweep tables repeat across passes", text == first, "")
		}
	}
	b.spans = spans
	b.passes = walls
	b.set(b.extras, "sim_minst_per_s", float64(simInsts)/1e6/median(walls), "Minst/s")
	b.counts["sim.instructions_per_pass"] = simInsts

	if !b.traced {
		b.set(b.e2e, "wall_s", median(walls), "s")
		b.set(b.e2e, "peak_rss_mb", median(rss), "MB")
		return nil
	}

	root := b.spans.begin("drc-sweep.pass", 0)
	t0 := time.Now()
	tables, err := b.experimentsPass(ctx, root, hcfg)
	traced := time.Since(t0)
	b.spans.end(root, 0)
	if err != nil {
		return err
	}
	b.verify("traced tables identical to untraced", renderAll(tables) == first, "")
	b.notes["tracing_overhead_s"] = traced.Seconds() - walls[0]
	b.set(b.layers, "go.alloc_bytes_per_inst", float64(allocBytes)/float64(simInsts), "B")
	b.set(b.layers, "go.gc_cycles", float64(gcCycles), "count")
	b.set(b.layers, "attack.leaks", 0, "count")
	b.set(b.layers, "attack.chains_built", 0, "count")
	return b.layerProbe(ctx, probeSpec{
		programs:        programs,
		seedFor:         func(string) int64 { return b.seed },
		experimentsDone: true,
	})
}

// checkModes runs every program to completion in all three modes (the
// stats sweep) and checks the sweep's correctness: no error row, and per
// program the three modes agree on committed instructions, exit code and
// output bytes. At the canonical seed the ELF fixtures' three-mode envelopes must
// equal their golden files. It returns the committed instructions of one
// run of every program, summed.
func (b *bench) checkModes(ctx context.Context, hcfg harness.Config) (uint64, error) {
	rows, err := harness.StatsSweep(ctx, harness.NewRunner(b.workers), hcfg)
	if err != nil {
		return 0, err
	}
	byProgram := map[string][]results.Run{}
	for _, r := range rows {
		b.op(!r.Failed())
		if r.Failed() {
			b.verify("stats sweep "+r.Workload, false, "%s", r.Error)
			continue
		}
		byProgram[r.Workload] = append(byProgram[r.Workload], r)
	}
	var total uint64
	for _, name := range hcfg.Workloads {
		rs := byProgram[name]
		if len(rs) != len(modes) {
			b.verify("three modes ran "+name, false, "%d rows", len(rs))
			continue
		}
		ref := rs[0].Result
		agree := true
		for _, r := range rs[1:] {
			agree = agree && r.Result.Stats.Instructions == ref.Stats.Instructions &&
				r.Result.ExitCode == ref.ExitCode && string(r.Result.Out) == string(ref.Out) &&
				r.Result.Halted == ref.Halted
		}
		b.verify("modes agree on "+name, agree && ref.Halted, "")
		total += ref.Stats.Instructions
		body, err := results.Marshal(results.NewRun(rs...))
		if err != nil {
			return 0, err
		}
		b.digests[name] = shortHash(body)
	}
	if b.small || b.seed != canonicalSeed {
		return total, nil
	}
	for _, name := range workloads.ELFNames() {
		got, err := harness.SimulateRuns(ctx, harness.NewRunner(1), name, modes, harness.Config{Scale: 1, Seed: canonicalSeed, Spread: 8}, nil)
		if err != nil {
			b.verify("golden "+name, false, "%v", err)
			continue
		}
		body, err := results.Marshal(results.NewRun(got...))
		if err != nil {
			return 0, err
		}
		path := filepath.Join("internal", "harness", "testdata", name+".golden.json")
		want, err := os.ReadFile(filepath.Join(b.root, path))
		if err != nil {
			b.verify("golden "+path, false, "%v", err)
			continue
		}
		b.verify("golden "+path, string(body) == string(want), "")
	}
	return total, nil
}
