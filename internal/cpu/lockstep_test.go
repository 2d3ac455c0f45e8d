// Lockstep differential tests live in an external test package so they can
// derive layout seeds with harness.CellSeed — the same derivation the
// experiment runner uses — without an import cycle.
package cpu_test

import (
	"fmt"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// lockstepPair builds the pipeline and the reference interpreter for one
// (image, mode) point of the differential sweep.
func lockstepPair(t *testing.T, res *ilr.Result, mode cpu.Mode, input []byte) (*cpu.Pipeline, *emu.Machine) {
	t.Helper()
	ref := map[cpu.Mode]emu.Mode{cpu.ModeBaseline: emu.ModeNative, cpu.ModeVCFR: emu.ModeVCFR}[mode]
	if ref == 0 {
		t.Fatalf("no lockstep reference for mode %v", mode)
	}
	d := cpu.Deploy(res, mode)
	p, err := cpu.New(d.Img, cpu.DefaultConfig(mode), d.Trans, d.RandRA)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput(input)
	m, err := emu.NewMachine(d.Img, emu.Config{Mode: ref, Trans: d.Trans, RandRA: d.RandRA, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// lockstep steps the cycle-level pipeline and the reference interpreter one
// instruction at a time and compares the complete architectural state
// (registers, flags, PC, halt status) after every step — a far stronger
// invariant than output equality.
func lockstep(t *testing.T, p *cpu.Pipeline, m *emu.Machine, steps int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		pRunning, pErr := p.Step()
		mRunning, mErr := m.Step()
		if (pErr != nil) != (mErr != nil) {
			t.Fatalf("step %d: error divergence: pipeline=%v machine=%v", step, pErr, mErr)
		}
		if pErr != nil {
			return
		}
		ps, ms := p.State(), m.State()
		if ps.R != ms.R {
			t.Fatalf("step %d (pc %#x): registers diverged\n pipe %v\n mach %v",
				step, p.PC(), ps.R, ms.R)
		}
		if ps.Z != ms.Z || ps.N != ms.N || ps.C != ms.C || ps.V != ms.V {
			t.Fatalf("step %d: flags diverged", step)
		}
		if p.PC() != m.PC() {
			t.Fatalf("step %d: PC diverged %#x vs %#x", step, p.PC(), m.PC())
		}
		if pRunning != mRunning {
			t.Fatalf("step %d: halt divergence", step)
		}
		if !pRunning {
			return
		}
	}
}

// TestPipelineLockstepWithEmulator runs the lockstep comparison over
// randomly generated programs — instruction-mix coverage the hand-written
// workloads don't reach.
func TestPipelineLockstepWithEmulator(t *testing.T) {
	const steps = 30_000
	for seed := uint32(100); seed < 106; seed++ {
		w := workloads.Random(seed)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeVCFR} {
			t.Run(fmt.Sprintf("rand-%d/%v", seed, mode), func(t *testing.T) {
				p, m := lockstepPair(t, res, mode, w.Input)
				lockstep(t, p, m, steps)
			})
		}
	}
}

// TestDifferentialSweepAllWorkloads is the differential sweep: every SPEC
// analog workload, under several randomized ILR layouts (seed and spread
// both derived per cell, like the experiment runner derives them), compared
// against the reference interpreter in lockstep for both the baseline and
// the VCFR pipeline. A rewriter layout that breaks any instruction sequence
// anywhere in the corpus diverges here within a few thousand steps.
func TestDifferentialSweepAllWorkloads(t *testing.T) {
	steps := 15_000
	layouts := 3
	if testing.Short() {
		steps, layouts = 4_000, 1
	}
	spreads := []int{2, 16, 64}
	for _, name := range workloads.SpecNames {
		w, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < layouts; li++ {
			// Derive the layout seed the same way the harness derives cell
			// seeds, so the sweep exercises layouts the experiments will
			// actually run under.
			seed := harness.CellSeed(42, "lockstep", fmt.Sprintf("%s/layout-%d", name, li))
			opts := ilr.Options{Seed: seed, Spread: spreads[li%len(spreads)]}
			res, err := ilr.Rewrite(w.Img, opts)
			if err != nil {
				t.Fatalf("%s layout %d: %v", name, li, err)
			}
			for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeVCFR} {
				t.Run(fmt.Sprintf("%s/layout-%d/%v", name, li, mode), func(t *testing.T) {
					t.Parallel()
					p, m := lockstepPair(t, res, mode, w.Input)
					lockstep(t, p, m, steps)
				})
			}
		}
	}
}
