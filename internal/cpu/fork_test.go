package cpu_test

import (
	"fmt"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
	"vcfr/internal/workloads"
)

// sameArch fails the test when two pipelines' architectural state differs:
// registers, flags, pc, halt status, exit code and program output.
func sameArch(t *testing.T, label string, got, want *cpu.Pipeline) {
	t.Helper()
	gs, ws := got.State(), want.State()
	if gs.R != ws.R || gs.Z != ws.Z || gs.N != ws.N || gs.C != ws.C || gs.V != ws.V {
		t.Errorf("%s: registers/flags diverged\n got  %v\n want %v", label, gs.R, ws.R)
	}
	if got.PC() != want.PC() || gs.Halted != ws.Halted || gs.ExitCode != ws.ExitCode ||
		string(gs.Out) != string(ws.Out) {
		t.Errorf("%s: pc/halt/exit/output diverged: %#x/%v/%d vs %#x/%v/%d", label,
			got.PC(), gs.Halted, gs.ExitCode, want.PC(), ws.Halted, ws.ExitCode)
	}
}

// sameErr fails the test when two run errors differ.
func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: error diverged: got %v, want %v", label, got, want)
	}
}

// TestForkMatchesStraightRun is Fork's contract over every SPEC analog and
// ELF fixture in all three modes: a pipeline walked to seq and forked runs
// on to exactly the straight run's Result (every counter, cache, DRAM, DRC
// and predictor statistic) and architectural state, and a fork that runs an
// injected fault over scribbled memory leaves its parent untouched — the
// parent, run on, still equals the straight run.
func TestForkMatchesStraightRun(t *testing.T) {
	const cap = 30_000
	names := append(append([]string{}, workloads.SpecNames...), workloads.ELFNames()...)
	type prog struct {
		name  string
		img   *program.Image
		input []byte
	}
	progs := make([]prog, 0, len(names)+1)
	for _, name := range names {
		w, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, w.Img, w.Input})
	}
	// The PIC idiom pops its own return address, so under VCFR every
	// iteration auto-de-randomizes a bitmap-marked stack slot: the fork's
	// functional hooks must charge the fork, not the parent.
	progs = append(progs, prog{"pic", asm.MustAssemble("pic", picSrc), nil})
	for _, pr := range progs {
		res, err := ilr.Rewrite(pr.img, ilr.Options{Seed: harness.CellSeed(42, "fork", pr.name)})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR} {
			t.Run(fmt.Sprintf("%s/%v", pr.name, mode), func(t *testing.T) {
				t.Parallel()
				straight := pipeFor(t, res, mode, pr.input, nil)
				want, wantErr := straight.Run(cap)
				n := want.Stats.Instructions
				if n < 2 {
					t.Fatalf("straight run committed only %d instructions", n)
				}
				text := cpu.Deploy(res, mode).Img.Seg("text")
				for _, seq := range []uint64{0, 1, n / 2, n - 1} {
					label := fmt.Sprintf("seq %d", seq)
					parent := pipeFor(t, res, mode, pr.input, nil)
					if seq > 0 {
						if _, err := parent.Run(seq); err != nil {
							t.Fatalf("%s: walk: %v", label, err)
						}
					}

					// A fork that overwrites its code with nops, its
					// registers and its output, then runs under an injected
					// fault, must not reach its parent.
					hurt := parent.Fork()
					for i := range text.Data {
						hurt.State().Mem.SetByte(text.Addr+uint32(i), byte(isa.OpNop))
					}
					hurt.InvalidateBlocks()
					hurt.State().R[1] ^= 0xdead
					hurt.State().Out = append(hurt.State().Out, "scribble"...)
					hurt.SetInjector(&cpu.InjectHooks{
						Targeted: true, At: seq + 8,
						FetchBytes: func(_ uint64, _ uint32, buf []byte) { buf[0] ^= 0x5a },
						Outcome: func(_ uint64, _ isa.Inst, out *emu.Outcome) {
							out.Target ^= 0x40
						},
					})
					_, _ = hurt.Run(cap) // any outcome will do

					fork := parent.Fork()
					got, err := fork.Run(cap)
					sameErr(t, label+" fork", err, wantErr)
					diffResults(t, label+" fork", got, want)
					sameArch(t, label+" fork", fork, straight)

					got, err = parent.Run(cap)
					sameErr(t, label+" parent", err, wantErr)
					diffResults(t, label+" parent", got, want)
					sameArch(t, label+" parent", parent, straight)
				}
			})
		}
	}
}

// picSrc loops over the position-independent-code idiom "call next; pop r".
const picSrc = `
	.entry main
	.text 0x1000
main:
	movi r5, 3000
	movi r6, 0
loop:
	call next
next:
	pop r4
	add r6, r4
	subi r5, 1
	cmpi r5, 0
	jg loop
	mov r1, r6
	sys 3
	movi r1, 0
	sys 0
`

// TestTargetedHooksStayCached proves a targeted hook set keeps the block
// cache: arming it flushes nothing, the run serves blocks from the cache
// both before and after the targeted instruction, the hooks fire exactly
// once with exactly that sequence number, and the result equals the
// per-instruction path under the same hooks.
func TestTargetedHooksStayCached(t *testing.T) {
	const warm, at, cap = 5_000, 9_000, 30_000
	w, res := longRunningWorkload(t, 310, at)
	run := func(noCache bool) (cpu.Result, []uint64) {
		p := pipeFor(t, res, cpu.ModeVCFR, w.Input, func(c *cpu.Config) {
			c.NoBlockCache = noCache
		})
		if _, err := p.Run(warm); err != nil {
			t.Fatal(err)
		}
		var seen []uint64
		note := func(seq uint64) { seen = append(seen, seq) }
		before := p.BlockCacheStats()
		p.SetInjector(&cpu.InjectHooks{
			Targeted: true, At: at,
			FetchBytes: func(seq uint64, _ uint32, _ []byte) { note(seq) },
			Outcome: func(seq uint64, _ isa.Inst, out *emu.Outcome) {
				note(seq)
				if out.MemKind != emu.MemNone {
					out.MemAddr ^= 4 // perturb the timed DL1 access
				}
			},
		})
		if _, err := p.Run(at); err != nil {
			t.Fatal(err)
		}
		mid := p.BlockCacheStats()
		r, err := p.Run(cap)
		if err != nil {
			t.Fatal(err)
		}
		if !noCache {
			after := p.BlockCacheStats()
			if mid.Flushes != before.Flushes {
				t.Errorf("arming a targeted set flushed the block cache (%d -> %d flushes)",
					before.Flushes, mid.Flushes)
			}
			if mid.Hits <= before.Hits || after.Hits <= mid.Hits {
				t.Errorf("block-cache hits did not grow on both sides of At: %d, %d, %d",
					before.Hits, mid.Hits, after.Hits)
			}
		}
		return r, seen
	}
	cached, cachedSeen := run(false)
	direct, directSeen := run(true)
	for _, seen := range [][]uint64{cachedSeen, directSeen} {
		if len(seen) != 2 || seen[0] != at || seen[1] != at {
			t.Errorf("targeted hooks observed seqs %v, want FetchBytes and Outcome once each at %d", seen, at)
		}
	}
	diffResults(t, "targeted", cached, direct)
}
