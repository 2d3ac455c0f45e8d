package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// synthetic builds a trace from hand-written records exercising every flag
// combination: sequential and far instruction-table jumps, negative memory
// and target deltas, derand counts, and a halt record.
func synthetic() *Trace {
	b := NewBuilder(Meta{
		Workload:   "synthetic",
		Mode:       cpu.ModeVCFR,
		LayoutSeed: -7,
		Spread:     8,
		Scale:      2,
		MaxInsts:   1000,
		ImageHash:  0xdeadbeefcafef00d,
	})
	insts := []isa.Inst{
		{Op: isa.OpNop, Addr: 0x1000},
		{Op: isa.OpMovRR, Rd: 1, Rs: 2, Addr: 0x1001},
		{Op: isa.OpLoad, Rd: 3, Imm: -64, Addr: 0x1003},
		{Op: isa.OpCall, Target: 0x2000, Addr: 0x1009},
		{Op: isa.OpRet, Addr: 0x2000},
		{Op: isa.OpHalt, Addr: 0x100e},
	}
	recs := []cpu.ExecRecord{
		{Inst: insts[0]},
		{Inst: insts[1]},
		{Inst: insts[2], MemKind: emu.MemLoad, MemAddr: 0xfff0},
		{Inst: insts[3], Taken: true, Target: 0x9000_2000, MemKind: emu.MemStore, MemAddr: 0xffec},
		{Inst: insts[4], Taken: true, Target: 0x100e, MemKind: emu.MemLoad, MemAddr: 0xffec, Derands: 2},
		{Inst: insts[1]}, // revisit: non-sequential table index, backwards
		{Inst: insts[5], Halt: true},
	}
	for _, r := range recs {
		b.Add(r)
	}
	return b.Finish(cpu.Result{Halted: true, ExitCode: 3, Out: []byte("done\n")})
}

// records drains an iterator.
func records(t *Trace) []cpu.ExecRecord {
	var out []cpu.ExecRecord
	it := t.Iter()
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestRoundTripSynthetic(t *testing.T) {
	orig := synthetic()
	enc1 := orig.Bytes()
	dec, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Meta, orig.Meta) {
		t.Errorf("meta changed: %+v != %+v", dec.Meta, orig.Meta)
	}
	if dec.Halted != orig.Halted || dec.ExitCode != orig.ExitCode || !bytes.Equal(dec.Out, orig.Out) {
		t.Errorf("terminal state changed")
	}
	if !reflect.DeepEqual(dec.Insts, orig.Insts) {
		t.Errorf("instruction table changed: %v != %v", dec.Insts, orig.Insts)
	}
	if got, want := records(dec), records(orig); !reflect.DeepEqual(got, want) {
		t.Errorf("records changed:\ngot:  %+v\nwant: %+v", got, want)
	}
	// encode→decode→encode is byte-identical.
	enc2 := dec.Bytes()
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("re-encoding changed bytes: %d vs %d", len(enc1), len(enc2))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := synthetic().Bytes()

	t.Run("bad-magic", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[0] = 'X'
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[4] = 0x7f
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		// Any single bit flip anywhere must fail the checksum.
		for _, i := range []int{5, len(good) / 2, len(good) - 5} {
			data := append([]byte(nil), good...)
			data[i] ^= 0x40
			if _, err := Decode(data); err == nil {
				t.Errorf("flip at %d accepted", i)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must error, never panic.
		for i := 0; i < len(good); i++ {
			if _, err := Decode(good[:i]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", i)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), good...), 0, 1, 2)); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestDecodeRejectsForgedStructure re-signs structurally broken payloads with
// a valid CRC, proving the structural validation itself catches them.
func TestDecodeRejectsForgedStructure(t *testing.T) {
	reSign := func(mutate func(*Trace)) []byte {
		tr := synthetic()
		mutate(tr)
		return tr.Bytes() // Bytes computes a fresh, valid CRC
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"record-count-too-high", func(tr *Trace) { tr.n += 3 }},
		{"record-count-too-low", func(tr *Trace) { tr.n -= 2 }},
		{"truncated-records", func(tr *Trace) { tr.recs = tr.recs[:len(tr.recs)-2] }},
		{"index-out-of-table", func(tr *Trace) { tr.Insts = tr.Insts[:2] }},
		{"forged-memkind", func(tr *Trace) { tr.recs[0] |= 0x03 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(reSign(c.mutate)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestCacheLRUAndBounds(t *testing.T) {
	tr := synthetic()
	sz := tr.SizeBytes()
	key := func(i int) Key { return Key{ImageHash: uint64(i)} }

	c := NewCache(2 * sz)
	c.Put(key(1), tr)
	c.Put(key(2), tr)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	// Key 2 is now least recently used; inserting key 3 must evict it.
	c.Put(key(3), tr)
	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d evicted out of LRU order", i)
		}
	}

	hits, misses, bytes, entries := c.Stats()
	if entries != 2 || bytes != 2*sz {
		t.Errorf("stats after eviction: %d entries / %d bytes, want 2 / %d", entries, bytes, 2*sz)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("hit/miss counters not advancing: %d/%d", hits, misses)
	}

	// A trace larger than the whole bound is not admitted; a zero-byte
	// cache admits nothing and both are safe to use.
	small := NewCache(sz - 1)
	small.Put(key(9), tr)
	if _, ok := small.Get(key(9)); ok {
		t.Error("oversized trace admitted")
	}
	off := NewCache(0)
	off.Put(key(9), tr)
	if _, ok := off.Get(key(9)); ok {
		t.Error("zero-capacity cache admitted a trace")
	}
}

// TestSizeBytesChargesPackedForm pins the cache's per-trace accounting to
// what a trace holds: each further record costs its packed bytes and
// nothing more, so the byte bound counts traces at their real footprint.
func TestSizeBytesChargesPackedForm(t *testing.T) {
	loop := []isa.Inst{
		{Op: isa.OpLoad, Rd: 3, Imm: -64, Addr: 0x1000},
		{Op: isa.OpMovRR, Rd: 1, Rs: 3, Addr: 0x1006},
		{Op: isa.OpJmp, Target: 0x1000, Addr: 0x1008},
	}
	capture := func(iters int) *Trace {
		b := NewBuilder(Meta{Workload: "loop"})
		for i := 0; i < iters; i++ {
			b.Add(cpu.ExecRecord{Inst: loop[0], MemKind: emu.MemLoad, MemAddr: uint32(0x8000 + 4*i)})
			b.Add(cpu.ExecRecord{Inst: loop[1]})
			b.Add(cpu.ExecRecord{Inst: loop[2], Taken: true, Target: 0x1000})
		}
		return b.Finish(cpu.Result{Out: []byte("out")})
	}
	short, long := capture(100), capture(1000)
	if got, want := long.SizeBytes()-short.SizeBytes(), int64(len(long.recs)-len(short.recs)); got != want {
		t.Errorf("%d more records cost %d bytes, want their %d packed bytes",
			long.Len()-short.Len(), got, want)
	}
	if enc := int64(len(long.Bytes())); long.SizeBytes() > 2*enc {
		t.Errorf("SizeBytes %d for a trace that encodes to %d bytes", long.SizeBytes(), enc)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put(Key{}, synthetic())
	if _, ok := c.Get(Key{}); ok {
		t.Error("nil cache returned a trace")
	}
	if h, m, b, e := c.Stats(); h != 0 || m != 0 || b != 0 || e != 0 {
		t.Error("nil cache reported non-zero stats")
	}
}
