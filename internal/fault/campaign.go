package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/trace"
)

// Config scopes one fault-injection campaign. The zero value (after
// withDefaults) is the canonical campaign every surface runs: three
// workloads under all three modes, the full fault model, Injections
// injections per (workload, mode) cell — all drawn deterministically from
// Seed, so the same Config always yields the same coverage table.
type Config struct {
	// Workloads to inject into; empty means harness.CampaignWorkloads.
	Workloads []string
	// Modes to evaluate; empty means all three architectures.
	Modes []cpu.Mode
	// Kinds is the fault model subset; empty means AllKinds. Kinds that
	// need VCFR (drc-entry) are skipped in non-VCFR cells.
	Kinds []Kind
	// Injections per (workload, mode) cell, split evenly across that
	// cell's applicable kinds. <= 0 means 120 (with the default three
	// workloads and three modes: 1080 injections); at most MaxInjections.
	Injections int
	// Seed drives everything: the per-workload layout seed and every
	// injection's site choice and flip mask derive from it. 0 means 42.
	Seed int64
	// Scale multiplies workload iteration counts. <= 0 means 1.
	Scale int
	// Spread is the ILR scatter factor. <= 0 means 8.
	Spread int
	// MaxInsts caps the clean reference run (and thereby the injection
	// budget, see Reference.Budget). 0 means 25000 — long enough to cover
	// every fault kind's sites, short enough that a thousand injections
	// finish in seconds.
	MaxInsts uint64
	// Bits flipped per injection. <= 0 means 1 (the classic single-event
	// upset).
	Bits int
}

func (c Config) withDefaults() Config {
	harness.CampaignDefaults(&c.Workloads, &c.Modes, &c.Seed, &c.Scale, &c.Spread, &c.MaxInsts)
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if c.Injections <= 0 {
		c.Injections = 120
	}
	if c.Bits <= 0 {
		c.Bits = 1
	}
	return c
}

// MaxInjections bounds Config.Injections. The campaign plans every
// injection of every cell before the first one runs.
const MaxInjections = 10000

// CheckInjections rejects a per-cell injection count above MaxInjections.
func CheckInjections(n int) error {
	if n > MaxInjections {
		return fmt.Errorf("fault: %d injections per cell exceeds the limit of %d", n, MaxInjections)
	}
	return nil
}

func (c Config) validate() error {
	if err := harness.CheckCampaign("fault", c.Workloads, c.Modes); err != nil {
		return err
	}
	if err := CheckInjections(c.Injections); err != nil {
		return err
	}
	for _, k := range c.Kinds {
		if !k.valid() {
			return fmt.Errorf("fault: unknown fault kind %q", k)
		}
	}
	return nil
}

// Row is one (workload, mode, fault kind) line of the coverage table.
type Row struct {
	Workload string
	Mode     cpu.Mode
	Kind     Kind
	Stats    Stats
	// Error marks the row's injections as not (fully) executed: workload
	// preparation or reference capture failed, or the campaign was
	// cancelled mid-flight.
	Error string
}

// Report is one campaign's full result.
type Report struct {
	Config Config
	Rows   []Row
	Totals Stats
	// Partial is true when any row carries an error.
	Partial bool
}

// kindsFor filters the configured kinds down to the ones meaningful in a
// mode.
func kindsFor(kinds []Kind, mode cpu.Mode) []Kind {
	out := make([]Kind, 0, len(kinds))
	for _, k := range kinds {
		if k.NeedsVCFR() && mode != cpu.ModeVCFR {
			continue
		}
		out = append(out, k)
	}
	return out
}

// splitInjections splits total across n kinds, remainder to the first ones.
func splitInjections(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

// candidates lists the dynamic instruction indices of the reference trace
// the kind can fire on.
func candidates(t *trace.Trace, k Kind) []uint64 {
	var out []uint64
	it := t.Iter()
	for i := uint64(0); ; i++ {
		rec, ok := it.Next()
		if !ok {
			return out
		}
		if k.matches(rec.Inst.Class(), rec.Taken) {
			out = append(out, i)
		}
	}
}

// injectionSeed derives one injection's PRNG seed from the campaign seed
// and the injection's coordinates, so neither worker count nor scheduling
// order changes any injection.
func injectionSeed(base int64, workload string, mode cpu.Mode, kind Kind, j int) int64 {
	return harness.CellSeed(base, "faults",
		fmt.Sprintf("%s|%s|%s|%d", workload, mode, kind, j))
}

// cell is one (workload, mode) pair's shared state: the prepared app and
// the clean reference its injections are judged against.
type cell struct {
	workload string
	mode     cpu.Mode
	app      *harness.App
	ref      Reference
	trace    *trace.Trace
	kinds    []Kind
}

// reference captures the cell's clean run, through the runner's trace
// cache when one is present (record once, judge many).
func (c *cell) reference(ctx context.Context, r *harness.Runner, maxInsts uint64) error {
	p, _, err := c.app.Pipeline(c.mode, nil)
	if err != nil {
		return err
	}
	meta := trace.Meta{
		Workload:   c.app.W.Name,
		Mode:       c.mode,
		LayoutSeed: c.app.R.Opts.Seed,
		Spread:     c.app.R.Opts.Spread,
		MaxInsts:   maxInsts,
	}
	var t *trace.Trace
	if r.Traces == nil {
		t, _, err = trace.CaptureContext(ctx, p, maxInsts, meta)
	} else {
		key := harness.TraceKey(c.app, c.mode, maxInsts)
		meta.ImageHash = key.ImageHash
		t, _, err = r.Traces.Do(ctx, key, func() (*trace.Trace, error) {
			tt, _, cerr := trace.CaptureContext(ctx, p, maxInsts, meta)
			return tt, cerr
		})
	}
	if err != nil {
		return err
	}
	c.trace = t
	c.ref = Reference{Insts: uint64(t.Len()), Halted: t.Halted, ExitCode: t.ExitCode, Out: t.Out}
	return nil
}

// task is one planned injection.
type task struct {
	cell  *cell
	row   int // index into Report.Rows
	fault Fault
}

// RunCampaign executes the configured campaign on the runner's worker pool
// and returns the coverage table. Rows come back in the fixed (workload,
// mode, kind) order of the config regardless of worker count, so identical
// configs produce byte-identical reports. onProgress, if non-nil, receives
// live completion state (CellsDone/CellsTotal count injections).
//
// Cancellation returns the partial report, not an error: finished
// injections keep their counts and unexecuted rows carry the context's
// error, mirroring how sweeps report partial results.
func RunCampaign(ctx context.Context, r *harness.Runner, cfg Config, onProgress func(harness.Progress)) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if r == nil {
		r = harness.NewRunner(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Prepare each workload once; every mode cell shares the layout. The
	// layout seed derives from the campaign seed and the workload name, so
	// layouts differ across workloads but never across surfaces.
	layouts := make([]harness.Layout, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		layouts[i] = harness.Layout{Workload: w, Seed: harness.CellSeed(cfg.Seed, "faults", w)}
	}
	apps, appErrs := harness.PrepareLayouts(ctx, cfg.Scale, cfg.Spread, layouts)

	cells := make([]*cell, 0, len(cfg.Workloads)*len(cfg.Modes))
	for i, w := range cfg.Workloads {
		for _, m := range cfg.Modes {
			cells = append(cells, &cell{workload: w, mode: m, app: apps[i], kinds: kindsFor(cfg.Kinds, m)})
		}
	}

	// Phase 1: clean references, sharded across the pool.
	refErrs := r.Shard(ctx, len(cells), func(ctx context.Context, i int) error {
		if err := appErrs[i/len(cfg.Modes)]; err != nil {
			return err
		}
		return cells[i].reference(ctx, r, cfg.MaxInsts)
	})

	// Phase 2: plan every injection up front, in fixed order. The plan is
	// fully deterministic: injection j of a (workload, mode, kind) row
	// picks its site and flip mask from a seed derived from exactly those
	// coordinates.
	var rows []Row
	var tasks []task
	for ci, c := range cells {
		counts := splitInjections(cfg.Injections, len(c.kinds))
		for ki, k := range c.kinds {
			rowIdx := len(rows)
			rows = append(rows, Row{Workload: c.workload, Mode: c.mode, Kind: k})
			if err := refErrs[ci]; err != nil {
				rows[rowIdx].Error = harness.FirstLine(err.Error())
				continue
			}
			cands := candidates(c.trace, k)
			if len(cands) == 0 {
				// No site in the reference window can host this kind; the
				// row reports zero injections rather than an error.
				continue
			}
			for j := 0; j < counts[ki]; j++ {
				rng := rand.New(rand.NewSource(injectionSeed(cfg.Seed, c.workload, c.mode, k, j)))
				tasks = append(tasks, task{
					cell: c,
					row:  rowIdx,
					fault: Fault{
						Kind:  k,
						Index: cands[rng.Intn(len(cands))],
						Bits:  cfg.Bits,
						Seed:  rng.Int63(),
					},
				})
			}
		}
	}

	// Phase 3: execute the injections.
	outcomes, taskErrs := runInjections(ctx, r, tasks, onProgress)

	// Phase 4: aggregate in plan order.
	rep := &Report{Config: cfg, Rows: rows}
	for i, t := range tasks {
		row := &rep.Rows[t.row]
		switch o := outcomes[i]; {
		case o != "":
			row.Stats.Add(o)
		case row.Error == "":
			row.Error = harness.FirstLine(taskErrs[i].Error())
		}
	}
	for i := range rep.Rows {
		if rep.Rows[i].Error != "" {
			rep.Partial = true
		}
		rep.Totals.Merge(rep.Rows[i].Stats)
	}
	return rep, nil
}

// runInjections executes the planned injections on the runner's pool, one
// shard unit per planUnits unit. Outcomes land in per-task slots, so the
// aggregation order is fixed no matter which worker ran what. A task
// without an outcome carries its unit's error: the walker failed or
// panicked, or the campaign was cancelled.
func runInjections(ctx context.Context, r *harness.Runner, tasks []task, onProgress func(harness.Progress)) ([]Outcome, []error) {
	units := planUnits(tasks)
	outcomes := make([]Outcome, len(tasks))
	tally := harness.Tally(len(tasks), onProgress)
	unitErrs := r.Shard(ctx, len(units), func(ctx context.Context, u int) error {
		return runUnit(ctx, tasks, units[u], outcomes, tally)
	})
	taskErrs := make([]error, len(tasks))
	for u, unit := range units {
		for _, i := range unit {
			if outcomes[i] == "" {
				taskErrs[i] = unitErrs[u]
			}
		}
	}
	return outcomes, taskErrs
}

// injectionsPerUnit caps one shard unit. Each unit pays one walk over the
// reference prefix, so larger units amortize it better; smaller ones spread
// a cell over more workers.
const injectionsPerUnit = 32

// planUnits cuts the plan into shard units: each unit is a run of one
// cell's injections in Index order (ties in plan order), at most
// injectionsPerUnit long. The cut decides only which worker simulates
// what, never an outcome.
func planUnits(tasks []task) [][]int {
	byCell := make(map[*cell][]int)
	var order []*cell
	for i, t := range tasks {
		if byCell[t.cell] == nil {
			order = append(order, t.cell)
		}
		byCell[t.cell] = append(byCell[t.cell], i)
	}
	var units [][]int
	for _, c := range order {
		idx := byCell[c]
		sort.SliceStable(idx, func(a, b int) bool {
			return tasks[idx[a]].fault.Index < tasks[idx[b]].fault.Index
		})
		for len(idx) > 0 {
			n := min(len(idx), injectionsPerUnit)
			units = append(units, idx[:n])
			idx = idx[n:]
		}
	}
	return units
}

// runUnit executes one unit's injections. A clean walker pipeline advances
// block-cached from instruction 0 to each injection's Index in turn; every
// injection runs on a fork of the walker taken there, so the prefix the
// injected run shares with the reference is simulated once per unit rather
// than once per injection. Each outcome lands in outcomes and is reported
// through tally. A returned error means the unit's remaining injections did
// not run: it is the walker's error, or the context's on cancellation.
func runUnit(ctx context.Context, tasks []task, unit []int, outcomes []Outcome, tally func(insts uint64)) error {
	c := tasks[unit[0]].cell
	walker, _, err := c.app.Pipeline(c.mode, nil)
	if err != nil {
		return err
	}
	for _, i := range unit {
		f := tasks[i].fault
		// RunContext(ctx, 0) means "run to the default cap", not "stay".
		if f.Index > 0 {
			if _, err := walker.RunContext(ctx, f.Index); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		}
		o, insts := runInjected(ctx, walker.Fork(), c.ref, f)
		if o == "" {
			return ctx.Err()
		}
		outcomes[i] = o
		tally(insts)
	}
	return nil
}

// runInjected arms f on p, runs p to the reference's budget and classifies
// the run. A cancelled run returns the empty outcome (not executed); a
// simulator panic classifies as crash — from the fault model's point of
// view the machine died. insts counts the injected run's committed
// instructions from instruction 0.
func runInjected(ctx context.Context, p *cpu.Pipeline, ref Reference, f Fault) (o Outcome, insts uint64) {
	defer func() {
		if r := recover(); r != nil {
			o = OutcomeCrash
		}
	}()
	p.SetInjector(NewInjector(f).Hooks())
	res, err := p.RunContext(ctx, ref.Budget())
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return "", res.Stats.Instructions
	}
	return Classify(res, err, ref), res.Stats.Instructions
}

// Envelope renders the report as the versioned wire document every surface
// emits (results schema v3, kind "campaign").
func (rep *Report) Envelope() results.Envelope {
	modes := make([]string, len(rep.Config.Modes))
	for i, m := range rep.Config.Modes {
		modes[i] = m.String()
	}
	kinds := make([]string, len(rep.Config.Kinds))
	for i, k := range rep.Config.Kinds {
		kinds[i] = string(k)
	}
	c := results.Campaign{
		Seed:       rep.Config.Seed,
		Scale:      rep.Config.Scale,
		Spread:     rep.Config.Spread,
		MaxInsts:   rep.Config.MaxInsts,
		Injections: rep.Config.Injections,
		Bits:       rep.Config.Bits,
		Workloads:  rep.Config.Workloads,
		Modes:      modes,
		Faults:     kinds,
		Rows:       make([]results.CampaignRow, 0, len(rep.Rows)),
	}
	for _, r := range rep.Rows {
		c.Rows = append(c.Rows, results.CampaignRow{
			Workload:      r.Workload,
			Mode:          r.Mode.String(),
			Fault:         string(r.Kind),
			Outcomes:      counts(r.Stats),
			DetectionRate: r.Stats.DetectionRate(),
			Error:         r.Error,
		})
	}
	c.Totals = counts(rep.Totals)
	return results.NewCampaign(c)
}

func counts(s Stats) results.CampaignCounts {
	return results.CampaignCounts{
		Injected:            s.Injected,
		DetectedUnmappedRPC: s.DetectedUnmappedR,
		DetectedIllegal:     s.DetectedIllegal,
		Crashes:             s.Crashes,
		SDC:                 s.SilentCorruptions,
		Masked:              s.Masked,
		Hangs:               s.Hangs,
	}
}

// Table renders the report as the human-readable coverage table
// `campaignsim -kind faults` prints: one row per (workload, mode, fault kind), then a
// per-mode aggregate over the control-flow kinds — the paper's headline
// comparison.
func (rep *Report) Table() *harness.Table {
	t := &harness.Table{
		ID:    "faults",
		Title: "fault-injection detection coverage (baseline vs naive-ILR vs VCFR)",
		Columns: []string{"workload", "mode", "fault", "inj", "det-rpc", "det-illegal",
			"crash", "sdc", "masked", "hang", "detected"},
		Note: fmt.Sprintf("seed %d, %d injections per workload x mode cell, %d-bit flips, reference cap %d insts",
			rep.Config.Seed, rep.Config.Injections, rep.Config.Bits, rep.Config.MaxInsts),
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	for _, r := range rep.Rows {
		if r.Error != "" {
			t.Rows = append(t.Rows, []string{r.Workload, r.Mode.String(), string(r.Kind),
				"error: " + r.Error})
			continue
		}
		s := r.Stats
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Mode.String(), string(r.Kind),
			u(s.Injected), u(s.DetectedUnmappedR), u(s.DetectedIllegal),
			u(s.Crashes), u(s.SilentCorruptions), u(s.Masked), u(s.Hangs),
			fmt.Sprintf("%.1f%%", 100*s.DetectionRate()),
		})
	}
	for _, agg := range rep.ControlAggregates() {
		s := agg.Stats
		t.Rows = append(t.Rows, []string{
			"(all)", agg.Mode.String(), "(control-flow)",
			u(s.Injected), u(s.DetectedUnmappedR), u(s.DetectedIllegal),
			u(s.Crashes), u(s.SilentCorruptions), u(s.Masked), u(s.Hangs),
			fmt.Sprintf("%.1f%%", 100*s.DetectionRate()),
		})
	}
	return t
}

// ModeAggregate is one mode's merged statistics over the control-flow
// fault kinds.
type ModeAggregate struct {
	Mode  cpu.Mode
	Stats Stats
}

// ControlAggregates merges each mode's rows over the control-flow fault
// kinds (branch/indirect/return targets and DRC entries — everything but
// opcode flips, which any decoder catches). This is the quantity the
// paper's dependability argument ranks: VCFR must detect strictly more of
// these than the baseline.
func (rep *Report) ControlAggregates() []ModeAggregate {
	control := make(map[Kind]bool)
	for _, k := range ControlKinds() {
		control[k] = true
	}
	out := make([]ModeAggregate, 0, len(rep.Config.Modes))
	for _, m := range rep.Config.Modes {
		agg := ModeAggregate{Mode: m}
		for _, r := range rep.Rows {
			if r.Mode == m && control[r.Kind] && r.Error == "" {
				agg.Stats.Merge(r.Stats)
			}
		}
		out = append(out, agg)
	}
	return out
}
