package trace_test

// Capture equivalence: attaching the recorder must not perturb the run it
// records — same Stats, same cache/DRAM/DRC/bpred counters, same program
// output — for every workload and every architecture mode, and the recorded
// stream must survive a save/load round trip. Fault campaigns build their
// clean references from captured runs, so a capture that changed timing or
// dropped records would silently skew every campaign.

import (
	"bytes"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/trace"
	"vcfr/internal/workloads"
)

var allModes = []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}

func equivCap(t *testing.T) uint64 {
	if testing.Short() {
		return 30_000
	}
	return 120_000
}

// capture runs app in mode execute-driven with a recorder attached.
func capture(t *testing.T, app *harness.App, mode cpu.Mode, maxInsts uint64) (*trace.Trace, cpu.Result) {
	t.Helper()
	p, _, err := app.Pipeline(mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := trace.Capture(p, maxInsts, trace.Meta{
		Workload: app.W.Name, Mode: mode, LayoutSeed: app.R.Opts.Seed,
		Spread: app.R.Opts.Spread, MaxInsts: maxInsts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// records drains a trace's iterator.
func records(tr *trace.Trace) []cpu.ExecRecord {
	var out []cpu.ExecRecord
	it := tr.Iter()
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestCaptureMatchesExecute locks capture's guarantee: for all 11 SPEC
// analogs under baseline, naive-ILR, and VCFR, the full Result of a run with
// the recorder attached equals the Result of the same run without it, the
// trace holds one record per executed instruction, and the decoded form of
// the trace yields the same records.
func TestCaptureMatchesExecute(t *testing.T) {
	maxInsts := equivCap(t)
	for _, name := range workloads.SpecNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := harness.Config{Seed: harness.CellSeed(42, "capture-equiv", name)}
			app, err := harness.Prepare(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allModes {
				tr, got := capture(t, app, mode, maxInsts)
				want, _, err := app.Run(mode, maxInsts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: captured Result differs from execute-driven\ngot:  %+v\nwant: %+v",
						mode, got, want)
				}
				if uint64(tr.Len()) != want.Stats.Instructions {
					t.Errorf("%v: trace holds %d records for %d executed instructions",
						mode, tr.Len(), want.Stats.Instructions)
				}
				loaded, err := trace.Decode(tr.Bytes())
				if err != nil {
					t.Fatalf("%v: decode: %v", mode, err)
				}
				if !reflect.DeepEqual(records(loaded), records(tr)) {
					t.Errorf("%v: decoded trace's records differ from the captured ones", mode)
				}
			}
		})
	}
}

// TestCaptureOutputRoundTrip checks the terminal program state survives
// capture and serialization for a workload that emits output.
func TestCaptureOutputRoundTrip(t *testing.T) {
	app, err := harness.Prepare("memcpy", harness.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr, want := capture(t, app, cpu.ModeVCFR, 0)
	if !want.Halted {
		t.Fatal("memcpy did not run to completion")
	}
	loaded, err := trace.Decode(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*trace.Trace{tr, loaded} {
		if !got.Halted || got.ExitCode != want.ExitCode || !bytes.Equal(got.Out, want.Out) {
			t.Fatalf("trace terminal state %v/%d/%q != result %v/%d/%q",
				got.Halted, got.ExitCode, got.Out, want.Halted, want.ExitCode, want.Out)
		}
	}
}
