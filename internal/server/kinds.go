package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"vcfr/internal/attack"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// Report is a finished job in both renderings: the versioned envelope every
// surface emits and, for campaigns, the text table campaignsim prints
// (nil for run and sweep jobs). The campaign reports (*fault.Report,
// *attack.Report, *multicore.Report) implement it directly.
type Report interface {
	Envelope() results.Envelope
	Table() *harness.Table
}

// envelopeReport is the Report of a run or sweep job, which has no table.
type envelopeReport results.Envelope

func (e envelopeReport) Envelope() results.Envelope { return results.Envelope(e) }
func (envelopeReport) Table() *harness.Table        { return nil }

// Shard is one per-workload shard of a fleet job: the envelope bytes a
// backend returned for it, or why none ever did.
type Shard struct {
	Workload string
	Body     []byte
	Err      error
}

// kindSpec is everything one job kind contributes to the service, to
// campaignsim, and to the fleet coordinator. Adding a kind is adding one
// entry to kindTable.
type kindSpec struct {
	kind JobKind
	// campaign kinds run in campaignsim and default to all three modes (a
	// campaign's point is the cross-mode comparison); the others default
	// to vcfr, vcfrsim's default.
	campaign bool
	// seed is the default seed: vcfrsim's 1 for run, 42 elsewhere.
	seed int64
	// requestModes validates the machine config on the requested modes
	// only; other kinds validate it on all three architectures.
	requestModes bool
	// check validates the kind's own request fields; nil means none.
	check func(r *SimRequest) error
	// run executes a normalized request.
	run func(ctx context.Context, rn *harness.Runner, r *SimRequest, progress func(harness.Progress)) (Report, error)
	// shards is the default workload list a fleet job splits into, one
	// shard per workload; nil means the kind runs whole on one backend.
	shards func() []string
	// merge folds shard envelopes, in plan order, into the bytes the
	// single process emits. Set exactly when shards is.
	merge func(r SimRequest, shards []Shard) ([]byte, error)
}

// kindTable lists every job kind, in the order error messages name them.
var kindTable = []kindSpec{
	{
		kind: JobRun, seed: 1, requestModes: true,
		check: func(r *SimRequest) error {
			if r.Workload == "" {
				return fmt.Errorf("simulate needs a workload")
			}
			_, err := workloads.ByName(r.Workload, 1)
			return err
		},
		run: func(ctx context.Context, rn *harness.Runner, r *SimRequest, _ func(harness.Progress)) (Report, error) {
			modes, err := cpu.ParseModes(r.Mode)
			if err != nil {
				return nil, err
			}
			rows, err := harness.SimulateRuns(ctx, rn, r.Workload, modes, r.config(), r.mutate())
			if err != nil {
				return nil, err
			}
			return envelopeReport(results.NewRun(rows...)), nil
		},
	},
	{
		kind: JobSweep, seed: 42,
		run: func(ctx context.Context, rn *harness.Runner, r *SimRequest, progress func(harness.Progress)) (Report, error) {
			rows, err := harness.StatsSweepProgress(ctx, rn, r.config(), progress)
			if err != nil {
				return nil, err
			}
			return envelopeReport(results.NewSweep(rows)), nil
		},
		shards: func() []string { return append([]string(nil), workloads.SpecNames...) },
		merge:  mergeSweep,
	},
	{
		kind: JobFaults, campaign: true, seed: 42,
		check: func(r *SimRequest) error {
			if _, err := fault.ParseKinds(r.Faults); err != nil {
				return err
			}
			if r.Injections < 0 {
				return fmt.Errorf("injections must be >= 0")
			}
			if r.Bits < 0 {
				return fmt.Errorf("bits must be >= 0")
			}
			return nil
		},
		// The campaigns run the default machine configuration per mode, so
		// the machine tuning knobs (drc, width, ctxswitch, interval) do not
		// reach them.
		run: func(ctx context.Context, rn *harness.Runner, r *SimRequest, progress func(harness.Progress)) (Report, error) {
			modes, _ := cpu.ParseModes(r.Mode)
			kinds, _ := fault.ParseKinds(r.Faults)
			rep, err := fault.RunCampaign(ctx, rn, fault.Config{
				Workloads:  r.Workloads,
				Modes:      modes,
				Kinds:      kinds,
				Injections: r.Injections,
				Seed:       *r.Seed,
				Scale:      *r.Scale,
				Spread:     *r.Spread,
				MaxInsts:   r.Instructions,
				Bits:       r.Bits,
			}, progress)
			if err != nil {
				return nil, err
			}
			return rep, nil
		},
		shards: harness.CampaignWorkloads,
		merge: func(_ SimRequest, shards []Shard) ([]byte, error) {
			c, err := mergeDocs(shards, "a campaign",
				func(e results.Envelope) *results.Campaign { return e.Campaign },
				func(c *results.Campaign) (*[]string, *[]results.CampaignRow, *results.CampaignCounts) {
					return &c.Workloads, &c.Rows, &c.Totals
				})
			if err != nil {
				return nil, err
			}
			return results.Marshal(results.NewCampaign(c))
		},
	},
	{
		kind: JobAttacks, campaign: true, seed: 42,
		check: func(r *SimRequest) error {
			if _, err := attack.ParsePayloads(r.Payloads); err != nil {
				return err
			}
			if r.LeakBudget < 0 {
				return fmt.Errorf("leak_budget must be >= 0")
			}
			if r.MaxLeaks < 0 {
				return fmt.Errorf("max_leaks must be >= 0")
			}
			if r.RerandEvery < 0 {
				return fmt.Errorf("rerand_every must be >= 0")
			}
			return nil
		},
		run: func(ctx context.Context, rn *harness.Runner, r *SimRequest, progress func(harness.Progress)) (Report, error) {
			modes, _ := cpu.ParseModes(r.Mode)
			payloads, _ := attack.ParsePayloads(r.Payloads)
			rep, err := attack.RunCampaign(ctx, rn, attack.Config{
				Workloads:    r.Workloads,
				Modes:        modes,
				Payloads:     payloads,
				Seed:         *r.Seed,
				Scale:        *r.Scale,
				Spread:       *r.Spread,
				MaxInsts:     r.Instructions,
				LeakBudget:   r.LeakBudget,
				MaxLeaks:     r.MaxLeaks,
				RerandEvery:  r.RerandEvery,
				AdvanceInsts: r.AdvanceInsts,
			}, progress)
			if err != nil {
				return nil, err
			}
			return rep, nil
		},
		shards: harness.CampaignWorkloads,
		// Per-mode means don't shard, but the integer sums under them do:
		// the summaries are recomputed over the merged rows by the same
		// function the single process uses.
		merge: func(_ SimRequest, shards []Shard) ([]byte, error) {
			a, err := mergeDocs(shards, "an attack campaign",
				func(e results.Envelope) *results.Attack { return e.Attack },
				func(a *results.Attack) (*[]string, *[]results.AttackRow, *results.AttackCounts) {
					return &a.Workloads, &a.Rows, &a.Totals
				})
			if err != nil {
				return nil, err
			}
			a.Summaries = attack.Summarize(a.Modes, a.Rows)
			return results.Marshal(results.NewAttack(a))
		},
	},
	{
		// A multicore cell co-runs the whole tenant mix, so the campaign
		// does not shard by workload: the fleet proxies it whole.
		kind: JobMulticore, campaign: true, seed: 42,
		check: func(r *SimRequest) error {
			if len(r.Cells) == 0 {
				return nil
			}
			_, err := multicore.ParseCells(strings.Join(r.Cells, ","))
			return err
		},
		run: func(ctx context.Context, rn *harness.Runner, r *SimRequest, progress func(harness.Progress)) (Report, error) {
			modes, _ := cpu.ParseModes(r.Mode)
			var cells []multicore.Cell
			if len(r.Cells) > 0 {
				cells, _ = multicore.ParseCells(strings.Join(r.Cells, ","))
			}
			rep, err := multicore.RunCampaign(ctx, rn, multicore.Config{
				Workloads: r.Workloads,
				Modes:     modes,
				Cells:     cells,
				Quantum:   r.Quantum,
				Seed:      *r.Seed,
				Scale:     *r.Scale,
				Spread:    *r.Spread,
				MaxInsts:  r.Instructions,
			}, progress)
			if err != nil {
				return nil, err
			}
			return rep, nil
		},
	},
}

func lookupKind(k JobKind) (*kindSpec, error) {
	for i := range kindTable {
		if kindTable[i].kind == k {
			return &kindTable[i], nil
		}
	}
	return nil, fmt.Errorf("unknown job kind %q (want %s)", k, kindList(false))
}

// kindList renders the kind names for messages: "run, sweep, ..., or
// multicore", or only the campaign kinds.
func kindList(campaignsOnly bool) string {
	var names []string
	for _, s := range kindTable {
		if s.campaign || !campaignsOnly {
			names = append(names, string(s.kind))
		}
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// ParseCampaignKind validates a campaignsim -kind value.
func ParseCampaignKind(s string) (JobKind, error) {
	if spec, err := lookupKind(JobKind(s)); err == nil && spec.campaign {
		return spec.kind, nil
	}
	return "", fmt.Errorf("unknown campaign kind %q (want %s)", s, kindList(true))
}

// Run normalizes req for kind and executes it on rn. It is the path
// campaignsim takes, and the same code POST /v1/jobs runs a submitted job
// through, so a CLI invocation and the equivalent request emit the same
// envelope bytes by construction.
func Run(ctx context.Context, rn *harness.Runner, kind JobKind, req SimRequest, progress func(harness.Progress)) (Report, error) {
	if err := req.normalize(kind); err != nil {
		return nil, err
	}
	spec, _ := lookupKind(kind)
	return spec.run(ctx, rn, &req, progress)
}

// ShardPlan returns the workloads a fleet splits a job into, one shard per
// workload, in the order the merged envelope lists them: the request's
// explicit list, else the kind's default set. It returns nil for kinds that
// run whole on one backend.
func ShardPlan(kind JobKind, req SimRequest) ([]string, error) {
	spec, err := lookupKind(kind)
	if err != nil || spec.shards == nil {
		return nil, err
	}
	if len(req.Workloads) > 0 {
		return append([]string(nil), req.Workloads...), nil
	}
	return spec.shards(), nil
}

// MergeShards folds the shards of a ShardPlan, in plan order, into the
// envelope bytes single-process execution of req would have produced.
func MergeShards(kind JobKind, req SimRequest, shards []Shard) ([]byte, error) {
	spec, err := lookupKind(kind)
	if err != nil {
		return nil, err
	}
	if spec.merge == nil {
		return nil, fmt.Errorf("job kind %q does not shard", kind)
	}
	return spec.merge(req, shards)
}

// mergeSweep concatenates shard sweep rows in shard order. A permanently
// failed shard degrades to the shape a failed cell has in a single-process
// sweep: one error row for the workload, Partial derived by
// results.NewSweep.
func mergeSweep(r SimRequest, shards []Shard) ([]byte, error) {
	var rows []results.Run
	for _, sh := range shards {
		if sh.Err != nil {
			rows = append(rows, results.Run{
				Workload: sh.Workload,
				Seed:     harness.CellSeed(*r.Seed, "stats", sh.Workload),
				Error:    harness.FirstLine(sh.Err.Error()),
			})
			continue
		}
		env, err := results.Unmarshal(sh.Body)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", sh.Workload, err)
		}
		if env.Sweep == nil {
			return nil, fmt.Errorf("shard %s: envelope kind %q is not a sweep", sh.Workload, env.Kind)
		}
		rows = append(rows, env.Sweep.Rows...)
	}
	return results.Marshal(results.NewSweep(rows))
}

// mergeDocs reassembles a campaign document from its per-workload shards.
// The merge is byte-exact because:
//
//   - rows concatenate in shard order, which is the canonical workload
//     order the single-process planner emits;
//   - every shard ran the same request, so the first shard's header is the
//     job's header once its one-workload list is widened back to the full
//     list;
//   - totals are field-wise sums over disjoint row sets, so they are summed
//     from the shard totals (the wire rows drop sub-row state, so totals
//     could not be recomputed from them).
//
// Campaign rows have no per-workload degradation, so a permanently failed
// shard fails the job. parts exposes a document's workload list, rows and
// totals.
func mergeDocs[D, R, C any](shards []Shard, what string, doc func(results.Envelope) *D, parts func(*D) (*[]string, *[]R, *C)) (D, error) {
	var out D
	for i, sh := range shards {
		if sh.Err != nil {
			return out, fmt.Errorf("fleet: shard %s failed permanently: %w", sh.Workload, sh.Err)
		}
		env, err := results.Unmarshal(sh.Body)
		if err != nil {
			return out, fmt.Errorf("shard %s: %w", sh.Workload, err)
		}
		d := doc(env)
		if d == nil {
			return out, fmt.Errorf("shard %s: envelope kind %q is not %s", sh.Workload, env.Kind, what)
		}
		if i == 0 {
			out = *d
			names, rows, totals := parts(&out)
			*names, *rows, *totals = nil, nil, *new(C)
		}
		names, rows, totals := parts(&out)
		_, drows, dtotals := parts(d)
		*names = append(*names, sh.Workload)
		*rows = append(*rows, *drows...)
		addCounts(totals, dtotals)
	}
	return out, nil
}

// addCounts adds src into dst field by field; both are structs of uint64
// counters (results.CampaignCounts, results.AttackCounts).
func addCounts[C any](dst, src *C) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
	}
}
