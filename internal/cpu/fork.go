package cpu

import (
	"maps"
	"slices"
)

// Fork returns an independent deep copy of the pipeline, positioned at the
// same committed instruction: running the fork produces exactly what
// running the parent would have, and neither run can perturb the other.
//
// The copy covers everything a run mutates — architectural state (program
// output included), the address space's pages, the IL1/DL1/L2/DRAM state,
// the branch predictors, the DRC hierarchy, the iTLB, the VCFR stack
// bitmap, statistics, sampled intervals and issue state. What a run only
// reads is shared: the translator, the randomized RA map, the input bytes,
// and the decoded blocks of the block cache (the fork owns its own index
// over them, so either side may add or drop blocks). The VCFR functional
// hooks are rebound to the fork. A tracer, recorder or injector is not
// carried over.
//
// A fork of a cluster tenant gets a private copy of the hierarchy it
// shared, L2 and DRAM included: it runs solo.
func (p *Pipeline) Fork() *Pipeline {
	f := *p
	st := *p.state
	f.state = &st
	f.mem = p.mem.Clone()
	st.Mem = f.mem
	st.Out = slices.Clone(p.state.Out)
	f.hier = p.hier.Clone()
	f.gsh = &gshare{history: p.gsh.history, mask: p.gsh.mask, table: slices.Clone(p.gsh.table)}
	f.btb = p.btb.clone()
	f.ras = &ras{stack: slices.Clone(p.ras.stack), top: p.ras.top}
	if p.drc != nil {
		f.drc = p.drc.clone()
	}
	if p.drc2 != nil {
		f.drc2 = p.drc2.clone()
	}
	f.bitmap = maps.Clone(p.bitmap)
	itlb := *p.itlb
	itlb.pages = maps.Clone(p.itlb.pages)
	f.itlb = &itlb
	f.intervals = slices.Clone(p.intervals)
	f.reg = nil
	if p.reg != nil {
		f.Registry()
	}
	if p.bb != nil {
		f.bb = p.bb.clone()
	}
	if p.cfg.Mode == ModeVCFR {
		st.Hooks = f.vcfrHooks()
	}
	f.tracer, f.recorder, f.inject, f.armed = nil, nil, nil, nil
	return &f
}
