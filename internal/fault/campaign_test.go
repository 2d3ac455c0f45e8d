package fault

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/results"
	"vcfr/internal/trace"
	"vcfr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// canonicalReport runs the canonical campaign (the default Config every
// surface runs) exactly once per test binary and shares the report.
var canonicalReport = sync.OnceValues(func() (*Report, error) {
	r := harness.NewRunner(0)
	r.Traces = trace.NewCache(256 << 20)
	return RunCampaign(context.Background(), r, Config{}, nil)
})

// TestCampaignGolden pins the canonical campaign's results envelope byte for
// byte: same seed, same sites, same flip masks, same coverage table, on
// every machine and Go version. Regenerate with -update after a deliberate
// change to the campaign (and bump the results schema if the wire shape
// changed).
func TestCampaignGolden(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "campaign.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign envelope drifted from %s\n--- got ---\n%.2000s", path, got)
	}
}

// TestVCFRDetectsMoreControlFaults is the dependability acceptance
// criterion: over the control-flow fault kinds the VCFR machine's detection
// rate must be strictly above the baseline's — the corrupted transfer lands
// on an unmapped randomized address and trips the control-violation check,
// where the baseline silently keeps executing mapped original-space code.
func TestVCFRDetectsMoreControlFaults(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("canonical campaign reported partial")
	}
	rates := make(map[cpu.Mode]float64)
	for _, agg := range rep.ControlAggregates() {
		if agg.Stats.Injected == 0 {
			t.Fatalf("mode %s aggregated zero control-flow injections", agg.Mode)
		}
		rates[agg.Mode] = agg.Stats.DetectionRate()
	}
	if rates[cpu.ModeVCFR] <= rates[cpu.ModeBaseline] {
		t.Errorf("VCFR control-flow detection rate %.3f not strictly above baseline %.3f",
			rates[cpu.ModeVCFR], rates[cpu.ModeBaseline])
	}
	// The paper's mechanism, specifically: VCFR must catch faults via the
	// unmapped-RPC path, which the other two architectures cannot.
	var vcfr, baseline Stats
	for _, agg := range rep.ControlAggregates() {
		switch agg.Mode {
		case cpu.ModeVCFR:
			vcfr = agg.Stats
		case cpu.ModeBaseline:
			baseline = agg.Stats
		}
	}
	if vcfr.DetectedUnmappedR == 0 {
		t.Error("VCFR detected no faults via the unmapped-RPC path")
	}
	if baseline.DetectedUnmappedR != 0 {
		t.Errorf("baseline claims %d unmapped-RPC detections; it has no randomized space", baseline.DetectedUnmappedR)
	}
}

// TestCampaignDeterministicAcrossWorkers locks worker-count independence:
// the same seed must yield byte-identical coverage tables whether the
// injections run serially or spread over eight workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Workloads: []string{"bzip2", "xalan"},
		// More than injectionsPerUnit per cell, so each cell's injections
		// split over several walker units.
		Injections: 72,
		MaxInsts:   10000,
		Seed:       7,
	}
	run := func(workers int) []byte {
		t.Helper()
		r := harness.NewRunner(workers)
		r.Traces = trace.NewCache(64 << 20)
		rep, err := RunCampaign(context.Background(), r, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := results.Marshal(rep.Envelope())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("coverage table depends on worker count:\n--- workers=1 ---\n%.1500s\n--- workers=8 ---\n%.1500s",
			serial, parallel)
	}
}

// TestCampaignCancellation proves a cancelled campaign returns the partial
// report instead of an error: rows come back in full, every unexecuted row
// carries exactly the context's error text, and Partial is set.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{
		Workloads: []string{"bzip2"}, Injections: 10, MaxInsts: 5000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("cancelled campaign not marked partial")
	}
	wantRows := len(kindsFor(AllKinds(), cpu.ModeBaseline)) +
		len(kindsFor(AllKinds(), cpu.ModeNaiveILR)) + len(AllKinds())
	if len(rep.Rows) != wantRows {
		t.Errorf("cancelled campaign has %d rows, want the full plan of %d", len(rep.Rows), wantRows)
	}
	for _, r := range rep.Rows {
		if r.Error != context.Canceled.Error() {
			t.Errorf("row %s/%s/%s: error %q under a cancelled context, want %q", r.Workload, r.Mode, r.Kind, r.Error, context.Canceled)
		}
	}
	env := rep.Envelope()
	if !env.Campaign.Partial {
		t.Error("envelope of cancelled campaign not marked partial")
	}
}

// TestCampaignCancelledMidRun cancels a running campaign from its first
// progress report: the report comes back Partial, the injections that ran
// keep their counts, and every row left unfinished reads as not executed.
func TestCampaignCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{
		Workloads: []string{"bzip2"}, Modes: []cpu.Mode{cpu.ModeVCFR}, Injections: 40,
	}, func(harness.Progress) { cancel() })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("campaign cancelled mid-run not marked partial")
	}
	if rep.Totals.Injected == 0 || rep.Totals.Injected >= 40 {
		t.Errorf("cancelled campaign classified %d of 40 injections, want some but not all", rep.Totals.Injected)
	}
	for _, r := range rep.Rows {
		if r.Error != "" && r.Error != context.Canceled.Error() {
			t.Errorf("row %s/%s/%s: error %q, want %q", r.Workload, r.Mode, r.Kind, r.Error, context.Canceled)
		}
	}
}

// TestRunUnitCancelledMidWalk cancels a unit while its walker is still
// advancing to the first injection: nothing is classified or reported, and
// the unit returns the context's error, which its unfinished injections'
// rows then carry.
func TestRunUnitCancelledMidWalk(t *testing.T) {
	app, err := harness.Prepare("bzip2", harness.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	c := &cell{workload: "bzip2", mode: cpu.ModeVCFR, app: app}
	if err := c.reference(context.Background(), harness.NewRunner(1), 25000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []task{
		{cell: c, fault: Fault{Kind: KindOpcode, Index: 20000, Seed: 1}},
		{cell: c, fault: Fault{Kind: KindOpcode, Index: 21000, Seed: 2}},
	}
	outcomes := make([]Outcome, len(tasks))
	err = runUnit(ctx, tasks, []int{0, 1}, outcomes, func(uint64) {
		t.Error("a cancelled unit reported progress")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled unit returned %v, want %v", err, context.Canceled)
	}
	for i, o := range outcomes {
		if o != "" {
			t.Errorf("task %d classified %q under a cancelled walk", i, o)
		}
	}
}

// divZeroSrc divides by zero after about a hundred instructions.
const divZeroSrc = `
	.entry main
	.text 0x1000
main:
	movi r5, 30
loop:
	subi r5, 1
	cmpi r5, 0
	jg loop
	movi r2, 0
	div r1, r2
	movi r1, 0
	sys 0
`

// TestRunInjectionsUnitFailure proves a unit whose walker fails marks only
// the injections it never finished: an error from the walker lands on the
// injections past the failure, a panic on every injection of its unit, and
// injections already classified keep their outcomes.
func TestRunInjectionsUnitFailure(t *testing.T) {
	img, err := asm.Assemble("divzero", divZeroSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ilr.Rewrite(img, ilr.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := Reference{Insts: 500, Halted: true}
	good := &cell{mode: cpu.ModeBaseline, app: &harness.App{W: workloads.Workload{Name: "divzero", Img: img}, R: res}, ref: ref}
	broken := &cell{mode: cpu.ModeBaseline, ref: ref} // no app: the walker panics
	tasks := []task{
		{cell: good, fault: Fault{Kind: KindOpcode, Index: 10, Seed: 1}},
		{cell: good, fault: Fault{Kind: KindOpcode, Index: 400, Seed: 2}},
		{cell: broken, fault: Fault{Kind: KindOpcode, Index: 10, Seed: 3}},
	}
	outcomes, errs := runInjections(context.Background(), harness.NewRunner(2), tasks, nil)
	if outcomes[0] == "" || errs[0] != nil {
		t.Errorf("injection before the walker's fault: outcome %q, error %v; want classified", outcomes[0], errs[0])
	}
	var f *emu.Fault
	if outcomes[1] != "" || !errors.As(errs[1], &f) {
		t.Errorf("injection past the walker's fault: outcome %q, error %v; want the walker's fault", outcomes[1], errs[1])
	}
	if outcomes[2] != "" || errs[2] == nil || !strings.HasPrefix(errs[2].Error(), "panic:") {
		t.Errorf("injection of a panicking unit: outcome %q, error %v; want the panic", outcomes[2], errs[2])
	}
}

// TestCampaignProgress checks the live progress feed: monotone injection
// counts ending at the plan total.
func TestCampaignProgress(t *testing.T) {
	var mu sync.Mutex
	var last harness.Progress
	var calls int
	rep, err := RunCampaign(context.Background(), harness.NewRunner(2), Config{
		Workloads: []string{"bzip2"}, Modes: []cpu.Mode{cpu.ModeVCFR},
		Injections: 20, MaxInsts: 5000,
	}, func(p harness.Progress) {
		// Callbacks from different workers may arrive out of order; keep
		// the furthest point seen.
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.CellsDone > last.CellsDone {
			last = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("campaign partial")
	}
	if calls == 0 || last.CellsDone != last.CellsTotal || last.Instructions == 0 {
		t.Errorf("final progress %+v after %d calls, want all injections done with nonzero instructions", last, calls)
	}
}

// TestSplitInjections pins the even split with remainder-first rule.
func TestSplitInjections(t *testing.T) {
	got := splitInjections(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitInjections(10, 4) = %v, want %v", got, want)
		}
	}
}
