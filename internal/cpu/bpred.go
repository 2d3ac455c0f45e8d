package cpu

import "slices"

// This file implements the front-end predictors. Everything is indexed with
// the de-randomized (original-space) PC by default — the key property that
// keeps VCFR's prediction accuracy identical to the baseline's (Sec. IV-D).
// Targets are stored as (orig, rand) pairs so that a correct prediction
// redirects the fetch stream in the original space without consulting the
// DRC, while execution verifies the prediction against the randomized
// target it computed.

// BPredStats counts predictor events.
type BPredStats struct {
	CondLookups   uint64
	CondMispred   uint64 // wrong direction
	BTBLookups    uint64
	BTBMisses     uint64
	BTBWrongTgt   uint64 // hit with a stale target
	RASPushes     uint64
	RASPops       uint64
	RASMispred    uint64
	IndirectWrong uint64
}

// CondAccuracy returns the conditional direction-prediction accuracy.
func (s BPredStats) CondAccuracy() float64 {
	if s.CondLookups == 0 {
		return 0
	}
	return 1 - float64(s.CondMispred)/float64(s.CondLookups)
}

// gshare is a 2-level adaptive direction predictor: global history XOR PC
// indexing a table of 2-bit saturating counters.
type gshare struct {
	history uint32
	mask    uint32
	table   []uint8
}

func newGshare(bits int) *gshare {
	return &gshare{
		mask:  (1 << bits) - 1,
		table: make([]uint8, 1<<bits),
	}
}

func (g *gshare) index(pc uint32) uint32 {
	return (g.history ^ (pc >> 1)) & g.mask
}

// predict returns the predicted direction for the branch at pc.
func (g *gshare) predict(pc uint32) bool {
	return g.table[g.index(pc)] >= 2
}

// update trains the counter and shifts the outcome into the history.
func (g *gshare) update(pc uint32, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else {
		if g.table[i] > 0 {
			g.table[i]--
		}
	}
	g.history = (g.history<<1 | b2u(taken)) & g.mask
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// targetPair is a BTB/RAS payload: the same target in both spaces.
type targetPair struct {
	orig uint32
	rand uint32
}

// btbEntry is one BTB way.
type btbEntry struct {
	valid bool
	tag   uint32
	tgt   targetPair
	lru   uint64
}

// btb is a set-associative branch target buffer.
type btb struct {
	ways  []btbEntry // every set's ways, set-major: one backing array
	assoc int
	mask  uint32
	clock uint64
}

func newBTB(entries, assoc int) *btb {
	nsets := entries / assoc
	return &btb{ways: make([]btbEntry, nsets*assoc), assoc: assoc, mask: uint32(nsets - 1)}
}

// clone returns an independent copy of the buffer.
func (b *btb) clone() *btb {
	cp := *b
	cp.ways = slices.Clone(b.ways)
	return &cp
}

func (b *btb) index(pc uint32) (uint32, uint32) {
	return (pc >> 1) & b.mask, pc
}

// setOf returns set n of a set-major array of assoc-way sets. The
// full-slice expression caps it at its own ways, so no set can ever grow
// into the next.
func setOf[T any](ways []T, n uint32, assoc int) []T {
	i := int(n) * assoc
	return ways[i : i+assoc : i+assoc]
}

// lookup returns the stored target pair for the transfer at pc.
func (b *btb) lookup(pc uint32) (targetPair, bool) {
	set, tag := b.index(pc)
	s := setOf(b.ways, set, b.assoc)
	for w := range s {
		e := &s[w]
		if e.valid && e.tag == tag {
			b.clock++
			e.lru = b.clock
			return e.tgt, true
		}
	}
	return targetPair{}, false
}

// install records the taken target pair for the transfer at pc.
func (b *btb) install(pc uint32, tgt targetPair) {
	set, tag := b.index(pc)
	s := setOf(b.ways, set, b.assoc)
	b.clock++
	victim, oldest := 0, ^uint64(0)
	for w := range s {
		e := &s[w]
		if e.valid && e.tag == tag {
			e.tgt, e.lru = tgt, b.clock
			return
		}
		if !e.valid {
			victim, oldest = w, 0
			break
		}
		if e.lru < oldest {
			victim, oldest = w, e.lru
		}
	}
	s[victim] = btbEntry{valid: true, tag: tag, tgt: tgt, lru: b.clock}
}

// ras is the return-address stack, holding (orig, rand) pairs. Overflow
// wraps (oldest entries are lost), underflow predicts garbage — both are
// counted as mispredictions when detected, like hardware.
type ras struct {
	stack []targetPair
	top   int // number of live entries, capped at len(stack)
}

func newRAS(depth int) *ras {
	return &ras{stack: make([]targetPair, depth)}
}

func (r *ras) push(t targetPair) {
	copy(r.stack[1:], r.stack[:len(r.stack)-1])
	r.stack[0] = t
	if r.top < len(r.stack) {
		r.top++
	}
}

// pop returns the predicted return target; ok is false on underflow.
func (r *ras) pop() (targetPair, bool) {
	if r.top == 0 {
		return targetPair{}, false
	}
	t := r.stack[0]
	copy(r.stack[:len(r.stack)-1], r.stack[1:])
	r.top--
	return t, true
}
