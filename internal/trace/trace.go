// Package trace captures the canonical dynamic execution of a (workload, ILR
// layout) pair.
//
// A trace records, per executed instruction, exactly what the timing model
// consumes from the functional execute stage (see cpu.ExecRecord): the
// decoded instruction with its original-space PC, the control-transfer
// outcome with its architectural (possibly randomized-space) target, the
// data-memory access, and the VCFR auto-de-randomization count, plus the
// run's terminal program state. Fault campaigns read a clean run's trace to
// pick injection sites and to judge each injected run against the clean
// outcome; the encoded form is what the artifact store shares between
// workers.
//
// On disk a trace is a compact versioned binary: a header, a table of unique
// decoded instructions, and a delta/varint-packed record stream, protected
// end to end by a CRC-32 (see codec.go and docs/ARCHITECTURE.md for the
// byte-level format).
package trace

import (
	"context"
	"fmt"

	"vcfr/internal/cpu"
	"vcfr/internal/isa"
)

// Meta identifies what a trace captured: the workload, the ILR layout it was
// randomized with, the architecture mode it executed under, and the
// instruction cap of the capture run. ImageHash lets consumers verify they
// rebuilt the same executed image.
type Meta struct {
	Workload   string
	Mode       cpu.Mode
	LayoutSeed int64
	Spread     int
	Scale      int
	MaxInsts   uint64
	ImageHash  uint64
}

// Trace is one captured execution. Insts is the table of unique decoded
// instructions (keyed by full content, so self-modifying images stay
// faithful); the packed record stream references them by index.
type Trace struct {
	Meta     Meta
	Halted   bool   // the capture run halted (vs hitting the instruction cap)
	ExitCode uint32 // program exit code at capture end
	Out      []byte // program output at capture end

	Insts []isa.Inst
	n     int    // record count
	recs  []byte // delta/varint-packed record stream
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return t.n }

// SizeBytes approximates the trace's in-memory footprint, used by the
// bounded Cache for eviction accounting: the packed record stream, the
// instruction table and the program output, plus a fixed header allowance.
func (t *Trace) SizeBytes() int64 {
	const instSize = 24 // isa.Inst: packed field sizes, rounded up
	return int64(len(t.recs)) + int64(len(t.Insts))*instSize + int64(len(t.Out)) + 128
}

// Builder accumulates ExecRecords into a Trace during a capture run.
type Builder struct {
	t       *Trace
	idx     map[isa.Inst]int
	prevIdx int
	prevMem uint32
	prevTgt uint32
}

// NewBuilder returns a builder for one capture run.
func NewBuilder(meta Meta) *Builder {
	return &Builder{
		t:       &Trace{Meta: meta},
		idx:     make(map[isa.Inst]int),
		prevIdx: -1,
	}
}

// Record flag bits (one flags byte per packed record).
const (
	recMemKindMask = 0x03 // bits 0-1: emu.MemKind
	recTaken       = 1 << 2
	recHalt        = 1 << 3
	recDerands     = 1 << 4 // Derands > 0; count follows as uvarint
	recSeqInst     = 1 << 5 // instruction index == previous index + 1
)

// Add appends one executed instruction's record. It is shaped to be passed
// directly to cpu.Pipeline.SetRecorder.
func (b *Builder) Add(r cpu.ExecRecord) {
	t := b.t
	i, ok := b.idx[r.Inst]
	if !ok {
		i = len(t.Insts)
		b.idx[r.Inst] = i
		t.Insts = append(t.Insts, r.Inst)
	}

	flags := byte(r.MemKind) & recMemKindMask
	if r.Taken {
		flags |= recTaken
	}
	if r.Halt {
		flags |= recHalt
	}
	if r.Derands > 0 {
		flags |= recDerands
	}
	if i == b.prevIdx+1 {
		flags |= recSeqInst
	}
	t.recs = append(t.recs, flags)
	if flags&recSeqInst == 0 {
		t.recs = appendVarint(t.recs, int64(i)-int64(b.prevIdx))
	}
	b.prevIdx = i
	if r.MemKind != 0 {
		t.recs = appendVarint(t.recs, int64(int32(r.MemAddr-b.prevMem)))
		b.prevMem = r.MemAddr
	}
	if r.Taken {
		t.recs = appendVarint(t.recs, int64(int32(r.Target-b.prevTgt)))
		b.prevTgt = r.Target
	}
	if r.Derands > 0 {
		t.recs = appendUvarint(t.recs, uint64(r.Derands))
	}
	t.n++
}

// Finish seals the trace with the capture run's terminal program state.
func (b *Builder) Finish(res cpu.Result) *Trace {
	t := b.t
	t.Halted = res.Halted
	t.ExitCode = res.ExitCode
	t.Out = append([]byte(nil), res.Out...)
	return t
}

// Iter walks a trace's packed records in execution order.
type Iter struct {
	t       *Trace
	pos     int
	prevIdx int
	prevMem uint32
	prevTgt uint32
}

// Iter returns an iterator positioned at the first record.
func (t *Trace) Iter() *Iter { return &Iter{t: t, prevIdx: -1} }

// Next decodes the next record. ok=false at the end of the trace or on a
// malformed stream (Load validates the stream, so a loaded trace never hits
// the malformed case).
func (it *Iter) Next() (cpu.ExecRecord, bool) {
	t := it.t
	if it.pos >= len(t.recs) {
		return cpu.ExecRecord{}, false
	}
	flags := t.recs[it.pos]
	it.pos++

	idx := it.prevIdx + 1
	if flags&recSeqInst == 0 {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		idx = it.prevIdx + int(d)
	}
	if idx < 0 || idx >= len(t.Insts) {
		return cpu.ExecRecord{}, false
	}
	it.prevIdx = idx

	r := cpu.ExecRecord{
		Inst:  t.Insts[idx],
		Taken: flags&recTaken != 0,
		Halt:  flags&recHalt != 0,
	}
	if flags&recMemKindMask > 2 {
		return cpu.ExecRecord{}, false // no such emu.MemKind
	}
	r.MemKind = memKind(flags & recMemKindMask)
	if r.MemKind != 0 {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		it.prevMem += uint32(int32(d))
		r.MemAddr = it.prevMem
	}
	if r.Taken {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		it.prevTgt += uint32(int32(d))
		r.Target = it.prevTgt
	}
	if flags&recDerands != 0 {
		v, ok := it.uvarint()
		if !ok || v == 0 {
			return cpu.ExecRecord{}, false
		}
		r.Derands = int(v)
	}
	return r, true
}

// validate walks every record once, proving the packed stream is
// well-formed: each record decodes, indices stay in the instruction table,
// and the stream ends exactly at the declared count.
func (t *Trace) validate() error {
	it := t.Iter()
	for i := 0; i < t.n; i++ {
		if _, ok := it.Next(); !ok {
			return fmt.Errorf("trace: malformed record %d of %d", i, t.n)
		}
	}
	if it.pos != len(t.recs) {
		return fmt.Errorf("trace: %d trailing record bytes after %d records", len(t.recs)-it.pos, t.n)
	}
	return nil
}

// Capture runs p for up to maxInsts instructions with a recorder attached
// and returns the sealed trace alongside the run's own Result.
func Capture(p *cpu.Pipeline, maxInsts uint64, meta Meta) (*Trace, cpu.Result, error) {
	return CaptureContext(context.Background(), p, maxInsts, meta)
}

// CaptureContext is Capture with mid-run cancellation: a cancelled context
// aborts the capture promptly (see cpu.Pipeline.RunContext) and no trace is
// produced.
func CaptureContext(ctx context.Context, p *cpu.Pipeline, maxInsts uint64, meta Meta) (*Trace, cpu.Result, error) {
	b := NewBuilder(meta)
	p.SetRecorder(b.Add)
	res, err := p.RunContext(ctx, maxInsts)
	p.SetRecorder(nil)
	if err != nil {
		return nil, res, err
	}
	return b.Finish(res), res, nil
}
