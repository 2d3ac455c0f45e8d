// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -experiment fig12
//	experiments -experiment all -scale 2 -workers 8
//	experiments -experiment fig13 -workloads h264ref,lbm -instructions 2000000
//	experiments -experiment all -cache .vcfr-cache.json
//	experiments -stats-json -workloads bzip2,mcf
//
// The fault, attack and multicore campaigns have their own command,
// campaignsim.
//
// Each experiment prints an aligned text table with the same rows/series the
// paper reports, plus the paper's headline number for comparison.
//
// Experiments are sharded into (experiment, workload) cells and run on a
// bounded worker pool (-workers, default GOMAXPROCS). Every cell derives its
// own PRNG seed from (base seed, experiment id, cell name), so output is
// byte-identical regardless of worker count or goroutine scheduling. With
// -cache, finished cells are memoized on disk and repeated invocations skip
// them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/results"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id (see -list) or 'all'")
		workloadsF = fs.String("workloads", "", "comma-separated workload subset (default: experiment's own set)")
		scale      = fs.Int("scale", 1, "workload iteration scale")
		maxInsts   = fs.Uint64("instructions", 0, "per-run instruction cap (0 = run to completion)")
		seed       = fs.Int64("seed", 42, "randomization seed")
		spread     = fs.Int("spread", 0, "ILR scatter factor (0 = harness default)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel cell workers")
		cachePath  = fs.String("cache", "", "results cache file; computed cells are reused across runs")
		cellTime   = fs.Duration("cell-timeout", 0, "per-cell time budget (0 = none); overruns become error rows")
		list       = fs.Bool("list", false, "list experiments and exit")
		format     = fs.String("format", "text", "output format: text | json")
		statsJSON  = fs.Bool("stats-json", false, "instead of table experiments, run every workload under all three modes and emit full per-run Results as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse a bad -format before any experiment runs.
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want text or json)", *format)
	}

	if *list {
		for _, e := range harness.Experiments {
			fmt.Fprintf(stdout, "%-24s %s\n%-24s   paper: %s\n", e.ID, e.Desc, "", e.Paper)
		}
		return nil
	}

	cfg := harness.Config{
		Scale:    *scale,
		MaxInsts: *maxInsts,
		Seed:     *seed,
		Spread:   *spread,
	}
	if *workloadsF != "" {
		cfg.Workloads = strings.Split(*workloadsF, ",")
	}

	var exps []harness.Experiment
	if *experiment == "all" {
		exps = harness.Experiments
	} else {
		e, err := harness.ByID(*experiment)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}

	r := harness.NewRunner(*workers)
	r.CellTimeout = *cellTime
	if *cachePath != "" {
		r.Cache = harness.OpenCache(*cachePath)
	}

	if *statsJSON {
		rows, err := harness.StatsSweep(ctx, r, cfg)
		if err != nil {
			return err
		}
		// One schema across every entry point: the sweep rides the same
		// versioned envelope the vcfrd service and vcfrsim emit. A partial
		// sweep (cancelled, or cells failed) still prints every finished
		// row, then exits non-zero so scripts notice.
		env := results.NewSweep(rows)
		if err := results.Write(stdout, env); err != nil {
			return err
		}
		if env.Sweep.Partial {
			return fmt.Errorf("stats sweep incomplete: some cells failed or were cancelled")
		}
		return nil
	}

	start := time.Now()
	results := r.RunAll(ctx, exps, cfg)

	type jsonResult struct {
		*harness.Table
		Paper   string  `json:"paper"`
		Seconds float64 `json:"seconds"`
	}
	var out []jsonResult
	var failed int
	for i, res := range results {
		e := exps[i]
		if res.Err != nil {
			// One broken experiment must not abort the sweep: report it and
			// keep printing the others.
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, res.Err)
			failed++
			continue
		}
		if *format == "json" {
			out = append(out, jsonResult{Table: res.Table, Paper: e.Paper, Seconds: res.Elapsed.Seconds()})
			continue
		}
		fmt.Fprint(stdout, res.Table.Render())
		fmt.Fprintf(stdout, "paper: %s   (%.1fs)\n\n", e.Paper, res.Elapsed.Seconds())
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "sweep: %d experiments in %.1fs (workers=%d)\n",
		len(exps), time.Since(start).Seconds(), *workers)
	if r.Cache != nil {
		hits, misses := r.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%s)\n", hits, misses, *cachePath)
		if err := r.Cache.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: saving cache: %v\n", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(exps))
	}
	return ctx.Err()
}
