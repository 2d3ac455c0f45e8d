package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vcfr/internal/attack"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
	"vcfr/internal/trace"
)

// campaignsPrograms is the canonical campaign workload set (identical for
// all three campaigns' defaults).
var campaignsPrograms = []string{"bzip2", "sjeng", "xalan"}

// campaignMaxInsts is the campaigns' default per-run instruction cap.
const campaignMaxInsts = 25000

// canonicalSeed is the seed the campaign goldens are pinned at.
const canonicalSeed = 42

// campaignConfigs returns the three campaign configurations for one
// workload seed: the default configs, or tiny ones for the benchmark's own
// test. The fault and multicore campaigns take the workload seed; their
// work is fixed by the config (912 injections; a fixed tenant grid). The
// attack campaign stays at its canonical seed: its attacker leaks until a
// chain works, so its work follows the layout (1662 to 2294 leaks, 7 to
// 12 s, over seeds 1, 2, 3, 1234 and 20150622) and would swamp every
// bound. Pinned, it is golden-checked on every run.
func (b *bench) campaignConfigs(seed int64) (fault.Config, attack.Config, multicore.Config) {
	if b.small {
		return fault.Config{Workloads: []string{"bzip2"}, Injections: 4, Seed: seed},
			attack.Config{Workloads: []string{"bzip2"}, Payloads: []attack.Payload{attack.AllPayloads()[0]}, MaxLeaks: 4, Seed: canonicalSeed},
			multicore.Config{Workloads: []string{"bzip2"}, Cells: []multicore.Cell{{Cores: 2, Tenants: 2}}, MaxInsts: 5000, Seed: seed}
	}
	return fault.Config{Seed: seed}, attack.Config{Seed: canonicalSeed}, multicore.Config{Seed: seed}
}

// campaignPass is one pass over the three campaigns.
type campaignPass struct {
	seed                                  int64
	fault, attack, cluster                time.Duration
	faultInsts, attackInsts, clusterInsts uint64
	faultRep                              *fault.Report
	attackRep                             *attack.Report
	clusterRep                            *multicore.Report
	envelopes                             map[string][]byte // golden file name → envelope bytes
	traceHits, traceMisses                uint64
	allocBytes, gcCycles                  uint64
}

func (p *campaignPass) wall() time.Duration { return p.fault + p.attack + p.cluster }
func (p *campaignPass) insts() uint64       { return p.faultInsts + p.attackInsts + p.clusterInsts }

// progressMax keeps the largest cumulative instruction count a campaign's
// progress callback reported (callbacks arrive from worker goroutines).
type progressMax struct {
	mu    sync.Mutex
	insts uint64
}

func (m *progressMax) observe(p harness.Progress) {
	m.mu.Lock()
	m.insts = max(m.insts, p.Instructions)
	m.mu.Unlock()
}

func (b *bench) runCampaignPass(ctx context.Context, seed int64, parent int) (*campaignPass, error) {
	fcfg, acfg, mcfg := b.campaignConfigs(seed)
	p := &campaignPass{seed: seed, envelopes: map[string][]byte{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	fr := harness.NewRunner(b.workers)
	fr.Traces = trace.NewCache(256 << 20)
	var fp, ap, cp progressMax
	var err error
	p.fault = b.timed("fault.RunCampaign", parent, func() uint64 {
		p.faultRep, err = fault.RunCampaign(ctx, fr, fcfg, fp.observe)
		return fp.insts
	})
	if err != nil {
		return nil, fmt.Errorf("fault campaign: %w", err)
	}
	p.faultInsts = fp.insts
	p.traceHits, p.traceMisses, _, _ = fr.Traces.Stats()

	p.attack = b.timed("attack.RunCampaign", parent, func() uint64 {
		p.attackRep, err = attack.RunCampaign(ctx, harness.NewRunner(b.workers), acfg, ap.observe)
		return ap.insts
	})
	if err != nil {
		return nil, fmt.Errorf("attack campaign: %w", err)
	}
	p.attackInsts = ap.insts

	p.cluster = b.timed("multicore.RunCampaign", parent, func() uint64 {
		p.clusterRep, err = multicore.RunCampaign(ctx, harness.NewRunner(b.workers), mcfg, cp.observe)
		return cp.insts
	})
	if err != nil {
		return nil, fmt.Errorf("multicore campaign: %w", err)
	}
	p.clusterInsts = cp.insts
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = uint64(ms1.NumGC - ms0.NumGC)

	for name, env := range map[string]results.Envelope{
		faultGolden:     p.faultRep.Envelope(),
		attackGolden:    p.attackRep.Envelope(),
		multicoreGolden: p.clusterRep.Envelope(),
	} {
		body, err := results.Marshal(env)
		if err != nil {
			return nil, err
		}
		p.envelopes[name] = body
	}
	return p, nil
}

// The campaigns' golden envelopes, relative to the checkout root.
const (
	faultGolden     = "internal/fault/testdata/campaign.golden.json"
	attackGolden    = "internal/attack/testdata/campaign.golden.json"
	multicoreGolden = "internal/multicore/testdata/multicore.golden.json"
)

// checkCampaignPass records the pass's operations and checks: no row
// failed, no campaign is partial, and every envelope run at the canonical
// seed is byte-identical to its golden file.
func (b *bench) checkCampaignPass(p *campaignPass) {
	for _, r := range p.faultRep.Rows {
		for i := uint64(0); i < r.Stats.Injected; i++ {
			b.op(true)
		}
		if r.Error != "" {
			b.op(false)
		}
	}
	for _, r := range p.attackRep.Rows {
		b.op(r.Error == "")
	}
	for _, r := range p.clusterRep.Rows {
		b.op(r.Error == "")
	}
	b.verify(fmt.Sprintf("campaigns complete (seed %d)", p.seed),
		!p.faultRep.Partial && !p.attackRep.Partial && !p.clusterRep.Partial,
		"partial: fault=%v attack=%v multicore=%v", p.faultRep.Partial, p.attackRep.Partial, p.clusterRep.Partial)
	if b.small {
		return
	}
	for _, name := range sortedKeys(p.envelopes) {
		if p.seed != canonicalSeed && name != attackGolden {
			continue
		}
		want, err := os.ReadFile(filepath.Join(b.root, name))
		if err != nil {
			b.verify("golden "+name, false, "%v", err)
			continue
		}
		b.verify("golden "+name, bytes.Equal(p.envelopes[name], want), "")
	}
}

// envelopeDigest hashes a pass's envelopes: every simulated statistic the
// campaigns report.
func envelopeDigest(envs map[string][]byte) map[string]string {
	out := map[string]string{}
	for name, body := range envs {
		h := sha256.Sum256(body)
		out[filepath.Base(filepath.Dir(filepath.Dir(name)))] = hex.EncodeToString(h[:8])
	}
	return out
}

func runCampaigns(ctx context.Context, b *bench) error {
	if err := b.measureSetup(campaignsPrograms, func(w string) int64 {
		return harness.CellSeed(b.seed, "faults", w)
	}); err != nil {
		return err
	}

	var passes []*campaignPass
	var rss []float64
	spans := b.spans
	b.spans = nil // the timed passes run untraced
	start := time.Now()
	for len(passes) == 0 || (!b.traced && time.Since(start) < b.budget) {
		var p *campaignPass
		_, peak, err := passPeakRSS(func() (err error) {
			p, err = b.runCampaignPass(ctx, b.seed, 0)
			return err
		})
		if err != nil {
			return err
		}
		b.checkCampaignPass(p)
		passes = append(passes, p)
		rss = append(rss, peak)
	}
	b.spans = spans

	first := passes[0]
	for _, p := range passes[1:] {
		same := true
		for name, body := range p.envelopes {
			same = same && bytes.Equal(body, first.envelopes[name])
		}
		b.verify("campaign envelopes repeat across passes", same, "")
	}
	for k, v := range envelopeDigest(first.envelopes) {
		b.digests[k] = v
	}
	b.countCampaigns(first)

	var wall, faultS, attackS, clusterS, injRate, leakRate, clusterRate, simRate []float64
	for _, p := range passes {
		wall = append(wall, p.wall().Seconds())
		b.passes = append(b.passes, p.wall().Seconds())
		faultS = append(faultS, p.fault.Seconds())
		attackS = append(attackS, p.attack.Seconds())
		clusterS = append(clusterS, p.cluster.Seconds())
		injRate = append(injRate, float64(p.faultRep.Totals.Injected)/p.fault.Seconds())
		leakRate = append(leakRate, float64(p.attackRep.Totals.Leaks)/p.attack.Seconds())
		clusterRate = append(clusterRate, float64(p.clusterInsts)/1e6/p.cluster.Seconds())
		simRate = append(simRate, float64(p.insts())/1e6/p.wall().Seconds())
	}
	b.set(b.extras, "sim_minst_per_s", median(simRate), "Minst/s")
	b.set(b.extras, "injections_per_s", median(injRate), "1/s")
	b.set(b.extras, "attack_leaks_per_s", median(leakRate), "1/s")
	b.set(b.extras, "cluster_minst_per_s", median(clusterRate), "Minst/s")
	b.set(b.extras, "fault_campaign_s", median(faultS), "s")
	b.set(b.extras, "attack_campaign_s", median(attackS), "s")
	b.set(b.extras, "multicore_campaign_s", median(clusterS), "s")

	if !b.traced {
		b.set(b.e2e, "wall_s", median(wall), "s")
		b.set(b.e2e, "peak_rss_mb", median(rss), "MB")
		return nil
	}

	// Traced run: the same pass again with spans on, then the layer probe
	// over the campaigns' own programs.
	root := b.spans.begin("campaigns.pass", 0)
	tp, err := b.runCampaignPass(ctx, b.seed, root)
	b.spans.end(root, 0)
	if err != nil {
		return err
	}
	b.checkCampaignPass(tp)
	for name, body := range tp.envelopes {
		b.verify("traced envelope identical to untraced "+filepath.Base(name), bytes.Equal(body, first.envelopes[name]), "")
	}
	b.notes["tracing_overhead_s"] = tp.wall().Seconds() - first.wall().Seconds()
	b.set(b.layers, "go.alloc_bytes_per_inst", float64(first.allocBytes)/float64(first.insts()), "B")
	b.set(b.layers, "go.gc_cycles", float64(first.gcCycles), "count")
	b.set(b.layers, "trace.cache_hit_ratio", ratio(tp.traceHits, tp.traceHits+tp.traceMisses), "ratio")
	b.set(b.layers, "attack.leaks", float64(tp.attackRep.Totals.Leaks), "count")
	b.set(b.layers, "attack.chains_built", float64(tp.attackRep.Totals.ChainsBuilt), "count")
	return b.layerProbe(ctx, probeSpec{
		programs: b.pick(campaignsPrograms, []string{"bzip2"}),
		maxInsts: campaignMaxInsts,
		seedFor:  func(w string) int64 { return harness.CellSeed(b.seed, "faults", w) },
	})
}

// countCampaigns adds the campaigns' exact outcome counts to the
// model-neutrality record.
func (b *bench) countCampaigns(p *campaignPass) {
	t := p.faultRep.Totals
	b.counts["fault.injected"] = t.Injected
	b.counts["fault.detected"] = t.DetectedUnmappedR + t.DetectedIllegal
	b.counts["fault.sdc"] = t.SilentCorruptions
	a := p.attackRep.Totals
	b.counts["attack.leaks"] = a.Leaks
	b.counts["attack.chains_built"] = a.ChainsBuilt
	b.counts["attack.successes"] = a.Successes
	b.counts["attack.rerandomizations"] = a.Rerandomizations
	b.counts["multicore.instructions"] = p.clusterInsts
	b.counts["sim.instructions"] = p.insts()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pick returns full, or small for the benchmark's own test.
func (b *bench) pick(full, small []string) []string {
	if b.small {
		return small
	}
	return full
}
