package cpu

import (
	"slices"

	"vcfr/internal/emu"
)

// This file implements the De-Randomization Cache of Sec. IV-B: a small,
// unified (randomization + de-randomization) lookup buffer in front of the
// instruction fetch unit. Each entry carries a derand-type tag telling which
// direction it translates, a valid bit, and — for de-rand entries mapping
// un-randomized addresses — the randomized tag that prohibits control
// transfers to safely randomized original addresses.
//
// The DRC is direct-mapped by default (DRCAssoc 1), exactly the paper's
// design point: "We designed DRC as direct mapped cache with small size to
// minimize power consumption... The design doesn't require a fully-
// associative DRC since the miss penalty is marginal." A miss walks the
// table pages through the unified L2 (the table shares L2 with IL1).

// lookupKind distinguishes the two translation directions.
type lookupKind uint8

const (
	lookupDerand lookupKind = iota + 1 // randomized -> original
	lookupRand                         // original -> randomized
)

// DRCStats counts DRC events, the basis of Fig. 14.
type DRCStats struct {
	Lookups       uint64
	Misses        uint64
	RandLookups   uint64 // randomization-direction lookups (e.g. call RAs)
	DerandLookups uint64
	TableWalks    uint64 // L2-backed walks caused by misses
	Installs      uint64

	// Level-2 buffer activity (only with Config.DRC2Entries > 0).
	L2Lookups uint64
	L2Hits    uint64

	Flushes uint64 // context-switch flushes
}

// MissRate returns misses per lookup.
func (s DRCStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

type drcEntry struct {
	valid  bool
	derand bool // entry type tag
	key    uint32
	val    uint32
	lru    uint64
}

// drc is the lookup buffer. The authoritative translation lives in the
// Translator (the in-memory tables); the drc only caches entries and
// produces timing + statistics.
//
// The paper's design point is one unified buffer with a per-entry type tag
// ("for more efficient usage of silicon resources, we use one unified lookup
// buffer"); the split configuration — two half-size buffers, one per
// direction — exists as the ablation that justifies it.
type drc struct {
	split bool
	assoc int
	banks [2][]drcEntry // [0] unified/derand, [1] rand when split; set-major
	masks [2]uint32
	clock uint64
	stats DRCStats
	trans emu.Translator
}

func newDRC(entries, assoc int, split bool, trans emu.Translator) *drc {
	d := &drc{split: split, assoc: assoc, trans: trans}
	mk := func(b, n int) {
		nsets := max(n/assoc, 1)
		d.banks[b] = make([]drcEntry, nsets*assoc)
		d.masks[b] = uint32(nsets - 1)
	}
	if split {
		mk(0, entries/2)
		mk(1, entries/2)
	} else {
		mk(0, entries)
	}
	return d
}

// clone returns an independent copy of the buffer's entries and counters;
// the Translator is shared (read-only).
func (d *drc) clone() *drc {
	cp := *d
	for b := range d.banks {
		cp.banks[b] = slices.Clone(d.banks[b])
	}
	return &cp
}

// set returns the ways of the set key hashes to in kind's bank.
func (d *drc) set(kind lookupKind, key uint32) []drcEntry {
	b := d.bank(kind)
	return setOf(d.banks[b], d.index(key, kind), d.assoc)
}

func (d *drc) bank(kind lookupKind) int {
	if d.split && kind == lookupRand {
		return 1
	}
	return 0
}

// index hashes a translation key to a set with a single XOR fold — one level
// of gates beyond plain bit selection, still a direct-mapped-friendly
// indexer. The fold matters: randomized-space keys are 8-byte-slot aligned,
// so selecting raw low bits would leave a fraction of the sets permanently
// idle for de-randomization entries.
func (d *drc) index(key uint32, kind lookupKind) uint32 {
	return ((key >> 3) ^ (key >> 11)) & d.masks[d.bank(kind)]
}

// lookup translates key in the given direction. hit reports whether the
// translation was resident (a miss still returns the correct translation —
// the table walk fetched it; the pipeline charges the walk latency).
// ok is false when no translation exists at all (un-randomized address).
func (d *drc) lookup(kind lookupKind, key uint32) (val uint32, hit, ok bool) {
	d.stats.Lookups++
	if kind == lookupRand {
		d.stats.RandLookups++
	} else {
		d.stats.DerandLookups++
	}
	s := d.set(kind, key)
	d.clock++
	for w := range s {
		e := &s[w]
		if e.valid && e.key == key && e.derand == (kind == lookupDerand) {
			e.lru = d.clock
			return e.val, true, true
		}
	}
	d.stats.Misses++
	// Miss: consult the authoritative table (the pipeline charges the L2
	// walk separately via walkLatency).
	switch kind {
	case lookupDerand:
		val, ok = d.trans.ToOrig(key)
	case lookupRand:
		val, ok = d.trans.ToRand(key)
	}
	if !ok {
		// Negative result: nothing to install. The prohibition check for
		// un-randomized addresses is the caller's job (it needs the tag from
		// the tables, not a translation).
		return 0, false, false
	}
	d.install(kind, key, val)
	return val, false, true
}

func (d *drc) install(kind lookupKind, key, val uint32) {
	d.stats.Installs++
	s := d.set(kind, key)
	d.clock++
	victim, oldest := 0, ^uint64(0)
	for w := range s {
		e := &s[w]
		if !e.valid {
			victim, oldest = w, 0
			break
		}
		if e.lru < oldest {
			victim, oldest = w, e.lru
		}
	}
	s[victim] = drcEntry{
		valid:  true,
		derand: kind == lookupDerand,
		key:    key,
		val:    val,
		lru:    d.clock,
	}
}

// probe checks residency without consulting the tables or counting a
// top-level lookup (used for the level-2 buffer).
func (d *drc) probe(kind lookupKind, key uint32) (uint32, bool) {
	s := d.set(kind, key)
	for w := range s {
		e := &s[w]
		if e.valid && e.key == key && e.derand == (kind == lookupDerand) {
			d.clock++
			e.lru = d.clock
			return e.val, true
		}
	}
	return 0, false
}

// flush invalidates every entry — the translation state is process-private,
// so a context switch empties the buffer.
func (d *drc) flush() {
	for b := range d.banks {
		for i := range d.banks[b] {
			d.banks[b][i].valid = false
		}
	}
	d.stats.Flushes++
}
