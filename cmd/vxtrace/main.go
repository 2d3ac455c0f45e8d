// Command vxtrace records and inspects execution traces (see internal/trace
// and docs/ARCHITECTURE.md for the file format).
//
// Usage:
//
//	vxtrace record -workload h264ref -mode vcfr -instructions 120000 -o h264.vxt
//	vxtrace info h264.vxt
//	vxtrace info -json h264.vxt
//
// record captures one execute-driven run into a trace file, stamped with
// the (workload, layout, mode, cap) it recorded and the executed image's
// hash. info prints that header and the stream's size, as text or as a
// versioned results envelope.
package main

import (
	"flag"
	"fmt"
	"os"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vxtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: vxtrace record|info [flags] [file]")
	}
	switch args[0] {
	case "record":
		return record(args[1:])
	case "info":
		return info(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want record or info)", args[0])
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("vxtrace record", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "built-in workload name")
		modeF    = fs.String("mode", "vcfr", "baseline | naive | vcfr")
		seed     = fs.Int64("seed", 42, "randomization seed")
		spread   = fs.Int("spread", 0, "ILR scatter factor (0 = harness default)")
		scale    = fs.Int("scale", 1, "workload scale")
		maxInsts = fs.Uint64("instructions", 0, "instruction cap (0 = to completion)")
		out      = fs.String("o", "", "output trace file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" || *out == "" {
		return fmt.Errorf("record needs -workload and -o")
	}
	modes, err := cpu.ParseModes(*modeF)
	if err != nil {
		return err
	}
	if len(modes) != 1 {
		return fmt.Errorf("a trace records one mode; -mode %q names %d", *modeF, len(modes))
	}
	mode := modes[0]
	cfg := harness.Config{Scale: *scale, Seed: *seed, Spread: *spread}
	app, err := harness.Prepare(*workload, cfg)
	if err != nil {
		return err
	}
	p, _, err := app.Pipeline(mode, nil)
	if err != nil {
		return err
	}
	key := harness.TraceKey(app, mode, *maxInsts)
	tr, res, err := trace.Capture(p, *maxInsts, trace.Meta{
		Workload:   app.W.Name,
		Mode:       mode,
		LayoutSeed: app.R.Opts.Seed,
		Spread:     app.R.Opts.Spread,
		Scale:      *scale,
		MaxInsts:   *maxInsts,
		ImageHash:  key.ImageHash,
	})
	if err != nil {
		return err
	}
	if err := tr.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("recorded %s under %s: %d instructions, %d cycles (IPC %.3f)\n",
		app.W.Name, mode, res.Stats.Instructions, res.Stats.Cycles, res.Stats.IPC())
	fmt.Printf("wrote %s: %d records, %d unique instructions\n", *out, tr.Len(), len(tr.Insts))
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("vxtrace info", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a versioned results.Envelope instead of the text report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: vxtrace info [-json] FILE")
	}
	path := fs.Arg(0)
	tr, err := trace.LoadFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m := tr.Meta
	if *jsonOut {
		return results.Write(os.Stdout, results.NewTrace(results.Trace{
			Workload:     m.Workload,
			Mode:         m.Mode.String(),
			LayoutSeed:   m.LayoutSeed,
			Spread:       m.Spread,
			Scale:        m.Scale,
			ImageHash:    fmt.Sprintf("%#016x", m.ImageHash),
			MaxInsts:     m.MaxInsts,
			Records:      tr.Len(),
			UniqueInsts:  len(tr.Insts),
			Halted:       tr.Halted,
			ExitCode:     tr.ExitCode,
			OutputBytes:  len(tr.Out),
			EncodedBytes: st.Size(),
		}))
	}
	fmt.Printf("workload      %s\n", m.Workload)
	fmt.Printf("mode          %s\n", m.Mode)
	fmt.Printf("layout        seed=%d spread=%d scale=%d\n", m.LayoutSeed, m.Spread, m.Scale)
	fmt.Printf("image hash    %#016x\n", m.ImageHash)
	fmt.Printf("capture cap   %d instructions (0 = to completion)\n", m.MaxInsts)
	fmt.Printf("records       %d (%d unique instructions)\n", tr.Len(), len(tr.Insts))
	fmt.Printf("halted        %v (exit code %d, %d output bytes)\n", tr.Halted, tr.ExitCode, len(tr.Out))
	fmt.Printf("encoded size  %d bytes (%.2f bytes/record)\n", st.Size(), float64(st.Size())/float64(max(tr.Len(), 1)))
	return nil
}
