// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload for a fixed time budget, checks the workload's
// outputs, and prints one JSON result line:
//
//	perfbench --workload drc-sweep --seed 42 --seconds 20 --trace 0
//
// Workloads:
//
//	drc-sweep  fig12+fig13+fig14 through harness.Runner over the 11 SPEC
//	           analogs and the 3 ELF fixtures, every run to completion
//	campaigns  the fault, attack and multicore campaigns (the golden-pinned
//	           canonical configs at seed 42)
//	service    a fresh vcfrd per pass, driven by a closed loop of nproc
//	           clients with vcfrload's tiny-job mix
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around its calls into each package (see README.md for the layer map).
// The line before the result is a report: host identity, every check, the
// workload-specific metrics and the digest of every simulated statistic.
// Run it through run.sh, which builds this package and vcfrd first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// bench is one invocation's configuration and everything it measured.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	small    bool   // minimal-size inputs (the benchmark's own test)
	root     string // checkout root: golden files live under it
	vcfrd    string // vcfrd binary for the service workload
	workers  int

	spans *tracer // nil unless traced

	attempted, failed int
	checks            []check
	e2e               map[string]metric // printed with --trace 0
	layers            map[string]metric // printed with --trace 1
	extras            map[string]metric // workload-specific, report only
	counts            map[string]uint64 // exact simulated counts
	digests           map[string]string // per-workload digest of simulated statistics
	passes            []float64         // seconds of each timed pass
	notes             map[string]any
}

// op counts one attempted operation of the workload.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// verify records a correctness check, with its diagnostic when it fails;
// a failed check also counts as a failed operation.
func (b *bench) verify(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok && format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	b.checks = append(b.checks, c)
	b.op(ok)
}

func (b *bench) correct() bool {
	for _, c := range b.checks {
		if !c.OK {
			return false
		}
	}
	return len(b.checks) > 0
}

func (b *bench) set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

var workloadRunners = map[string]func(context.Context, *bench) error{
	"drc-sweep": runDRCSweep,
	"campaigns": runCampaigns,
	"service":   runService,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and writes the report and result lines to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "drc-sweep | campaigns | service")
		seed     = fs.Int64("seed", 42, "workload seed; 42 is the default, 314159 the held-out seed")
		seconds  = fs.Int("seconds", 20, "measuring budget in seconds")
		traceOn  = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		small    = fs.Bool("small", false, "minimal-size inputs (for the benchmark's own test)")
		root     = fs.String("root", ".", "checkout root holding internal/*/testdata")
		vcfrd    = fs.String("vcfrd", "", "vcfrd binary (service workload)")
		spansDir = fs.String("spans", "", "directory for the traced run's span file (default <root>/.bench_build/perfbench/spans)")
		commit   = fs.String("commit", "", "source commit, recorded in the host block")
		dirty    = fs.String("dirty", "", "\"true\" when the source tree had local changes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloadRunners[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want drc-sweep, campaigns or service)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceOn == 1,
		small:    *small,
		root:     *root,
		vcfrd:    *vcfrd,
		workers:  runtime.NumCPU(),
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		extras:   map[string]metric{},
		counts:   map[string]uint64{},
		digests:  map[string]string{},
		notes:    map[string]any{},
	}
	if b.traced {
		b.spans = newTracer(fmt.Sprintf("%s-%d-%d", b.workload, b.seed, time.Now().UnixNano()))
	}
	if err := runWorkload(context.Background(), b); err != nil {
		return err
	}
	if b.attempted < 1 {
		return fmt.Errorf("workload attempted no operation")
	}
	b.set(b.extras, "fail_ratio", float64(b.failed)/float64(b.attempted), "ratio")

	spanFile := ""
	if b.traced {
		dir := *spansDir
		if dir == "" {
			dir = filepath.Join(*root, ".bench_build", "perfbench", "spans")
		}
		spanFile = filepath.Join(dir, b.spans.run+".json")
		if err := b.spans.write(spanFile); err != nil {
			return err
		}
	}

	report := map[string]any{
		"workload":         b.workload,
		"seed":             b.seed,
		"traced":           b.traced,
		"host":             hostIdentity(*commit, *dirty),
		"checks":           b.checks,
		"end_to_end":       b.e2e,
		"workload_metrics": b.extras,
		"per_layer":        b.layers,
		"counts":           b.counts,
		"digests":          b.digests,
		"pass_s":           b.passes,
		"notes":            b.notes,
	}
	if spanFile != "" {
		report["spans_file"] = spanFile
		report["spans"] = len(b.spans.spans)
	}
	printed := b.e2e
	if b.traced {
		printed = b.layers
	}
	result := map[string]any{
		"correct":   b.correct(),
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   printed,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	return enc.Encode(result)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
