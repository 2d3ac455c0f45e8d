// Command campaignsim runs the paper's evaluation campaigns against the
// simulator and prints the table each one ranks:
//
//   - faults: fault injection. Under complete instruction-address
//     randomization a corrupted control transfer lands on an unmapped
//     randomized address and is detected, instead of silently corrupting
//     the program (the detection-coverage table).
//   - attacks: an adversary in the loop. A code-reuse attacker with a
//     page-granular disclosure oracle owns the baseline machine in a leak
//     or two, has to join leaked location-map and code pages under naive
//     ILR, and under VCFR gets every fired chain converted into a detected
//     control violation (the work-factor table).
//   - multicore: multi-tenant interference. Cores × tenants cells co-run a
//     tenant mix on scheduled clusters; VCFR's co-run degradation tracks
//     the baseline's while naive ILR pays for its scattered footprint in
//     the shared L2 (Sec. IV-D, the co-run slowdown table).
//
// Usage:
//
//	campaignsim -kind faults
//	campaignsim -kind faults -workloads bzip2,mcf -faults branch-target,return-address
//	campaignsim -kind attacks -budget 32 -rerand-every 3 -seed 7 -json
//	campaignsim -kind multicore -cells 2c4t,1c2t -quantum 2000
//	campaignsim -kind faults -mode vcfr -bits 2
//
// The flags fill a vcfrd job request, which runs through the same
// normalize → run → envelope code as POST /v1/jobs: with -json the output
// is byte-identical to the job's GET /v1/jobs/{id}/result. Flags a kind
// does not read are ignored, as the request fields are. The default
// invocation of each kind is its canonical campaign (three workloads, three
// modes, seed 42).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "campaignsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaignsim", flag.ContinueOnError)
	var (
		kindF       = fs.String("kind", "", "campaign to run: faults | attacks | multicore")
		workloadsF  = fs.String("workloads", "", "comma-separated workloads, or the multicore tenant pool (default: the canonical campaign set)")
		mode        = fs.String("mode", "all", "architecture modes: baseline | naive | vcfr | all")
		seed        = fs.Int64("seed", 42, "campaign seed (layouts, injection sites, leak serve orders, and tenant layouts all derive from it)")
		scale       = fs.Int("scale", 1, "workload iteration scale")
		spread      = fs.Int("spread", 0, "ILR scatter factor (0 = default)")
		maxInsts    = fs.Uint64("instructions", 0, "per-run instruction cap: reference run, fired run, or tenant (0 = default 25000)")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		jsonOut     = fs.Bool("json", false, "emit the campaign as a versioned results envelope instead of a text table")
		faultsF     = fs.String("faults", "", "faults: comma-separated fault kinds (default: the full fault model)")
		injections  = fs.Int("injections", 0, "faults: injections per workload x mode cell (0 = default 120)")
		bits        = fs.Int("bits", 1, "faults: bits flipped per injection")
		payloadsF   = fs.String("payloads", "", "attacks: comma-separated payload templates (default: all three)")
		budget      = fs.Int("budget", 0, "attacks: leak budget B0 the success rate is measured at (0 = default 16)")
		maxLeaks    = fs.Int("max-leaks", 0, "attacks: leak-op exploration horizon per arm (0 = derive from the cell's universe)")
		rerandEvery = fs.Int("rerand-every", 0, "attacks: re-randomization period in leak ops (0 = default 5)")
		advance     = fs.Uint64("advance", 0, "attacks: victim instructions executed per leak op (0 = default 2000)")
		cellsF      = fs.String("cells", "", "multicore: comma-separated cores×tenants cells, e.g. 2c4t,1c2t (default: the canonical grid)")
		quantum     = fs.Uint64("quantum", 0, "multicore: scheduler time slice in committed instructions (0 = default 10000)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := server.ParseCampaignKind(*kindF)
	if err != nil {
		return err
	}
	list := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	req := server.SimRequest{
		Workloads:    list(*workloadsF),
		Mode:         *mode,
		Seed:         seed,
		Spread:       spread,
		Scale:        scale,
		Instructions: *maxInsts,
		Injections:   *injections,
		Faults:       list(*faultsF),
		Bits:         *bits,
		Payloads:     list(*payloadsF),
		LeakBudget:   *budget,
		MaxLeaks:     *maxLeaks,
		RerandEvery:  *rerandEvery,
		AdvanceInsts: *advance,
		Cells:        list(*cellsF),
		Quantum:      *quantum,
	}

	rep, err := server.Run(ctx, harness.NewRunner(*workers), kind, req, nil)
	if err != nil {
		return err
	}
	env := rep.Envelope()
	if *jsonOut {
		if err := results.Write(stdout, env); err != nil {
			return err
		}
	} else if _, err := io.WriteString(stdout, rep.Table().Render()); err != nil {
		return err
	}
	if env.Partial() {
		return fmt.Errorf("campaign incomplete: some cells were not executed")
	}
	return nil
}
