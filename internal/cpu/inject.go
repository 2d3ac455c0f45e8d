package cpu

import (
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// InjectHooks are the pipeline's fault-injection points, installed with
// SetInjector. Each hook observes (and may mutate) one micro-architectural
// value as the instruction with sequence number seq flows through Step:
//
//   - FetchBytes fires at fetch, before decode, with the raw bytes read from
//     storage. Mutating buf models a transient corruption of the fetch path
//     (an opcode-byte flip); the mutated bytes go through the normal decoder
//     and a failed decode surfaces as the usual emu fetch Fault.
//   - Outcome fires after functional execution with the instruction's
//     emu.Outcome. Mutating out.Target models a corrupted control-flow
//     target in the architectural (possibly randomized) space: a flipped
//     branch/call immediate, a smashed stack return address, a corrupted
//     indirect-branch register.
//   - Translated fires inside the VCFR target resolution after a successful
//     DRC/table de-randomization, with the randomized key and the
//     original-space translation. Mutating orig models a corrupted DRC
//     entry: the prohibition check already passed, so execution continues
//     at the wrong original-space address.
//
// seq is the zero-based index of the executing instruction (the commit
// count before it retires), which is how an injector targets exactly one
// dynamic instruction.
//
// By default (Targeted false) the hooks observe every instruction. A
// targeted set observes only the instruction with sequence number At: its
// hooks are called with seq == At and never otherwise, and are spent once
// that instruction has executed. A targeted set armed after its instruction
// has already executed never fires.
type InjectHooks struct {
	FetchBytes func(seq uint64, addr uint32, buf []byte)
	Outcome    func(seq uint64, in isa.Inst, out *emu.Outcome)
	Translated func(seq uint64, rand uint32, orig *uint32)

	Targeted bool
	At       uint64
}

// SetInjector installs fault-injection hooks, replacing any installed set
// (nil removes them). The injected pipeline stays deterministic: with the
// same hooks the same run replays bit-identically.
//
// An untargeted set invalidates the basic-block cache and forces the
// per-instruction fetch path for as long as it stays installed: a
// FetchBytes hook must observe every raw fetch, which a pre-decoded block
// would skip. A targeted set keeps the cache: the run executes block-cached
// up to At, steps instruction At through the hooked per-instruction path,
// and resumes blocks after it. The hooks are live only during that one
// step, so nothing else — block execution's own control-flow resolution
// included — ever calls them.
func (p *Pipeline) SetInjector(h *InjectHooks) {
	p.inject, p.armed = nil, nil
	if h != nil && h.Targeted {
		p.armed = h
		return
	}
	p.inject = h
	p.InvalidateBlocks()
}

// fetchDecodeInjected is emu.FetchDecode with the FetchBytes hook spliced
// between the storage read and the decoder.
func (p *Pipeline) fetchDecodeInjected(addr uint32) (isa.Inst, error) {
	var buf [isa.MaxLength]byte
	for i := range buf {
		buf[i] = p.mem.ByteAt(addr + uint32(i))
	}
	p.inject.FetchBytes(p.stats.Instructions, addr, buf[:])
	return emu.DecodeBytes(buf[:], addr)
}
