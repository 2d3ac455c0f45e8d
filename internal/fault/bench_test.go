package fault

import (
	"context"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/trace"
)

// BenchmarkCampaign measures end-to-end campaign throughput (reference
// capture amortized through the trace cache, then injected runs), reporting
// injections per second — the number that bounds how large a dependability
// study the simulator can host.
func BenchmarkCampaign(b *testing.B) {
	cfg := Config{
		Workloads:  []string{"bzip2"},
		Modes:      []cpu.Mode{cpu.ModeVCFR},
		Injections: 60,
		MaxInsts:   10000,
	}
	r := harness.NewRunner(0)
	r.Traces = trace.NewCache(64 << 20)
	var injected uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunCampaign(context.Background(), r, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Partial {
			b.Fatal("campaign partial")
		}
		injected += rep.Totals.Injected
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "injections/s")
}

// BenchmarkInjectedRun isolates one injected execution as the campaign
// runs it — fork the walker at the fault's index, run the fork under the
// hooks, classify — against a warm reference. Walking the reference from
// one injection's index to the next is not timed.
func BenchmarkInjectedRun(b *testing.B) {
	ctx := context.Background()
	app, err := harness.Prepare("bzip2", harness.Config{Scale: 1, Spread: 8, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	c := &cell{workload: "bzip2", mode: cpu.ModeVCFR, app: app}
	if err := c.reference(ctx, harness.NewRunner(1), 10000); err != nil {
		b.Fatal(err)
	}
	cands := candidates(c.trace, KindBranchTarget)
	if len(cands) == 0 {
		b.Fatal("no branch-target candidates")
	}
	var walker *cpu.Pipeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := cands[i%len(cands)]
		b.StopTimer()
		if i%len(cands) == 0 {
			if walker, _, err = app.Pipeline(cpu.ModeVCFR, nil); err != nil {
				b.Fatal(err)
			}
		}
		if idx > 0 {
			if _, err := walker.RunContext(ctx, idx); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		f := Fault{Kind: KindBranchTarget, Index: idx, Bits: 1, Seed: int64(i)}
		if o, _ := runInjected(ctx, walker.Fork(), c.ref, f); o == "" {
			b.Fatal("injection not executed")
		}
	}
}
