package realbin

import (
	"encoding/binary"
	"fmt"
	"sort"

	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// Branch condition mapping. RV compares two registers directly; VX lowers
// to cmp + jcc. Every lifted branch re-establishes its own flags, so VX
// flag-clobbering by intervening ALU lowerings is harmless by construction.
var branchOp = map[RVOp]isa.Op{
	rvBEQ: isa.OpJe, rvBNE: isa.OpJne,
	rvBLT: isa.OpJl, rvBGE: isa.OpJge,
	rvBLTU: isa.OpJb, rvBGEU: isa.OpJae,
}

var aluOp = map[RVOp]isa.Op{
	rvADD: isa.OpAdd, rvSUB: isa.OpSub, rvSLL: isa.OpShl, rvSRL: isa.OpShr,
	rvSRA: isa.OpSar, rvXOR: isa.OpXor, rvOR: isa.OpOr, rvAND: isa.OpAnd,
	rvMUL: isa.OpMul, rvDIV: isa.OpDiv, rvREM: isa.OpMod,
}

var aluCommutes = map[RVOp]bool{
	rvADD: true, rvXOR: true, rvOR: true, rvAND: true, rvMUL: true,
}

var aluImmOp = map[RVOp]isa.Op{
	rvXORI: isa.OpXorI, rvORI: isa.OpOrI, rvANDI: isa.OpAndI,
}

var shiftImmOp = map[RVOp]isa.Op{
	rvSLLI: isa.OpShlI, rvSRLI: isa.OpShrI, rvSRAI: isa.OpSarI,
}

func seq(ops ...isa.Inst) []liftedInst {
	out := make([]liftedInst, len(ops))
	for i, op := range ops {
		out[i] = liftedInst{vx: op}
	}
	return out
}

func mov(rd, rs isa.Reg) isa.Inst       { return isa.Inst{Op: isa.OpMovRR, Rd: rd, Rs: rs} }
func movi(rd isa.Reg, v int32) isa.Inst { return isa.Inst{Op: isa.OpMovRI, Rd: rd, Imm: v} }

// lowerAll lowers every live slot and sizes the lowerings, gathering
// refusals as it goes. Slots an earlier pass already refused are skipped:
// their diagnostic is recorded, and lowering them would re-read invariants
// (a confirmed auipc pair, a decodable word) that the refusal says do not
// hold. Dropped instructions (writes to x0, fences, true
// nops) lower to zero bytes: a branch into one lands on the next
// instruction's code, which matches the RV semantics of executing a
// no-effect instruction and falling through.
func (l *lifter) lowerAll() {
	for i := range l.slots {
		s := &l.slots[i]
		if s.pad || s.consumed || s.refused {
			continue
		}
		s.ops = l.lowerSlot(i)
		for _, op := range s.ops {
			s.size += op.vx.Len()
		}
		l.report.Instructions++
	}
	l.checkFuncSymbols()
	l.scanDataPointers()
}

// checkTarget validates a static control-transfer destination: it must be a
// lifted instruction start (not padding, not the tail of an auipc pair).
func (l *lifter) checkTarget(from, target uint64, what string) bool {
	idx, ok := l.idxAt[target]
	switch {
	case !ok:
		l.refuse(from, "%s target %#x outside text", what, target)
	case l.slots[idx].pad:
		l.refuse(from, "%s target %#x lands in padding", what, target)
	case l.slots[idx].consumed:
		l.refuse(from, "%s target %#x splits an auipc pair", what, target)
	default:
		return true
	}
	return false
}

func (l *lifter) lowerSlot(i int) []liftedInst {
	in := l.slots[i].inst
	m := l.m
	switch in.Op {
	case rvLUI:
		if in.Rd == rvSP {
			l.refuse(in.Addr, "absolute stack-pointer initialization (lui sp); the VX machine owns sp")
			return nil
		}
		if in.Rd == rvZero {
			return nil
		}
		// Hardening against the medlow code model: a lui whose 4 KiB page
		// intersects text is (almost certainly) building a code address the
		// lift cannot see or retarget. Refuse rather than mis-lift.
		if v := uint64(in.Imm); v+0xfff >= l.text.Vaddr && v < l.text.End() {
			l.refuse(in.Addr, "lui of a code-page address %#x (medlow model); rebuild with -mcmodel=medany", uint64(in.Imm))
			return nil
		}
		return seq(movi(m(in.Rd), int32(in.Imm)))

	case rvAUIPC:
		if in.Rd == rvZero {
			return seq(isa.Inst{Op: isa.OpNop}) // landing pad: real, relocatable address
		}
		next := l.slots[i+1].inst // unrefused: pairAUIPC confirmed the pair
		target := uint64(int64(in.Addr) + in.Imm + next.Imm)
		if next.Op == rvJALR {
			if !l.checkTarget(in.Addr, target, "far call") {
				return nil
			}
			op := isa.OpCall
			if next.Rd == rvZero {
				op = isa.OpJmp
			}
			return []liftedInst{{vx: isa.Inst{Op: op}, rvTarget: target, hasRVTarget: true}}
		}
		// la rd, sym
		if in.Rd == rvSP {
			l.refuse(in.Addr, "absolute stack-pointer initialization (la sp); the VX machine owns sp")
			return nil
		}
		if target >= l.text.Vaddr && target < l.text.End() {
			if !l.checkTarget(in.Addr, target, "code-address constant") {
				return nil
			}
			return []liftedInst{{vx: movi(m(in.Rd), 0), moviRV: target, hasMoviRV: true}}
		}
		if target > 0xffff_ffff {
			l.refuse(in.Addr, "la of %#x outside the 32-bit VX address space", target)
			return nil
		}
		return seq(movi(m(in.Rd), int32(uint32(target))))

	case rvJAL:
		target := uint64(int64(in.Addr) + in.Imm)
		if !l.checkTarget(in.Addr, target, "jump") {
			return nil
		}
		switch in.Rd {
		case rvRA:
			return []liftedInst{{vx: isa.Inst{Op: isa.OpCall}, rvTarget: target, hasRVTarget: true}}
		case rvZero:
			return []liftedInst{{vx: isa.Inst{Op: isa.OpJmp}, rvTarget: target, hasRVTarget: true}}
		default:
			l.refuse(in.Addr, "jal with link register %s (only ra/zero have a VX call/jmp analog)", in.Rd)
			return nil
		}

	case rvJALR:
		if in.Imm != 0 {
			l.refuse(in.Addr, "jalr with displacement %d: computed target the rewriter cannot prove", in.Imm)
			return nil
		}
		switch {
		case in.Rd == rvZero && in.Rs1 == rvRA:
			return seq(isa.Inst{Op: isa.OpRet})
		case in.Rd == rvZero:
			return seq(isa.Inst{Op: isa.OpJmpR, Rd: m(in.Rs1)})
		case in.Rd == rvRA:
			return seq(isa.Inst{Op: isa.OpCallR, Rd: m(in.Rs1)})
		default:
			l.refuse(in.Addr, "jalr with link register %s", in.Rd)
			return nil
		}

	case rvBEQ, rvBNE, rvBLT, rvBGE, rvBLTU, rvBGEU:
		target := uint64(int64(in.Addr) + in.Imm)
		if !l.checkTarget(in.Addr, target, "branch") {
			return nil
		}
		return []liftedInst{
			{vx: isa.Inst{Op: isa.OpCmp, Rd: m(in.Rs1), Rs: m(in.Rs2)}},
			{vx: isa.Inst{Op: branchOp[in.Op]}, rvTarget: target, hasRVTarget: true},
		}

	case rvLW, rvLWU, rvLD:
		if in.Rd == rvZero {
			return nil
		}
		return seq(isa.Inst{Op: isa.OpLoad, Rd: m(in.Rd), Rs: m(in.Rs1), Imm: int32(in.Imm)})
	case rvLBU:
		if in.Rd == rvZero {
			return nil
		}
		return seq(isa.Inst{Op: isa.OpLoadB, Rd: m(in.Rd), Rs: m(in.Rs1), Imm: int32(in.Imm)})
	case rvLB:
		if in.Rd == rvZero {
			return nil
		}
		rd := m(in.Rd)
		return seq(
			isa.Inst{Op: isa.OpLoadB, Rd: rd, Rs: m(in.Rs1), Imm: int32(in.Imm)},
			isa.Inst{Op: isa.OpShlI, Rd: rd, Imm: 24},
			isa.Inst{Op: isa.OpSarI, Rd: rd, Imm: 24},
		)

	case rvSW, rvSD:
		return seq(isa.Inst{Op: isa.OpStore, Rd: m(in.Rs1), Rs: m(in.Rs2), Imm: int32(in.Imm)})
	case rvSB:
		return seq(isa.Inst{Op: isa.OpStoreB, Rd: m(in.Rs1), Rs: m(in.Rs2), Imm: int32(in.Imm)})

	case rvADDI:
		if in.Rd == rvSP && in.Rs1 == rvZero {
			l.refuse(in.Addr, "absolute stack-pointer initialization (li sp); the VX machine owns sp")
			return nil
		}
		if in.Rd == rvZero {
			return nil // includes the canonical nop
		}
		switch {
		case in.Rs1 == rvZero:
			return seq(movi(m(in.Rd), int32(in.Imm)))
		case in.Rd == in.Rs1 && in.Imm == 0:
			return nil
		case in.Rd == in.Rs1:
			return seq(isa.Inst{Op: isa.OpAddI, Rd: m(in.Rd), Imm: int32(in.Imm)})
		case in.Imm == 0:
			return seq(mov(m(in.Rd), m(in.Rs1)))
		default:
			return seq(mov(m(in.Rd), m(in.Rs1)),
				isa.Inst{Op: isa.OpAddI, Rd: m(in.Rd), Imm: int32(in.Imm)})
		}

	case rvSLTI, rvSLTIU:
		if in.Rd == rvZero {
			return nil
		}
		jcc := isa.OpJl
		if in.Op == rvSLTIU {
			jcc = isa.OpJb
		}
		return []liftedInst{
			{vx: isa.Inst{Op: isa.OpCmpI, Rd: m(in.Rs1), Imm: int32(in.Imm)}},
			{vx: movi(m(in.Rd), 1)},
			{vx: isa.Inst{Op: jcc}, skipLocal: true},
			{vx: movi(m(in.Rd), 0)},
		}

	case rvXORI, rvORI, rvANDI:
		if in.Rd == rvZero {
			return nil
		}
		op := aluImmOp[in.Op]
		if in.Rs1 == rvZero {
			v := int32(in.Imm)
			if in.Op == rvANDI {
				v = 0
			}
			return seq(movi(m(in.Rd), v))
		}
		if in.Rd == in.Rs1 {
			return seq(isa.Inst{Op: op, Rd: m(in.Rd), Imm: int32(in.Imm)})
		}
		return seq(mov(m(in.Rd), m(in.Rs1)),
			isa.Inst{Op: op, Rd: m(in.Rd), Imm: int32(in.Imm)})

	case rvSLLI, rvSRLI, rvSRAI:
		if in.Rd == rvZero {
			return nil
		}
		if in.Imm > 31 {
			l.refuse(in.Addr, "%s amount %d ≥ 32: 64-bit value manipulation outside the 32-bit lift", in.Op, in.Imm)
			return nil
		}
		op := shiftImmOp[in.Op]
		if in.Rd == in.Rs1 {
			return seq(isa.Inst{Op: op, Rd: m(in.Rd), Imm: int32(in.Imm)})
		}
		return seq(mov(m(in.Rd), m(in.Rs1)),
			isa.Inst{Op: op, Rd: m(in.Rd), Imm: int32(in.Imm)})

	case rvSLT, rvSLTU:
		if in.Rd == rvZero {
			return nil
		}
		jcc := isa.OpJl
		if in.Op == rvSLTU {
			jcc = isa.OpJb
		}
		return []liftedInst{
			{vx: isa.Inst{Op: isa.OpCmp, Rd: m(in.Rs1), Rs: m(in.Rs2)}},
			{vx: movi(m(in.Rd), 1)},
			{vx: isa.Inst{Op: jcc}, skipLocal: true},
			{vx: movi(m(in.Rd), 0)},
		}

	case rvADD, rvSUB, rvSLL, rvSRL, rvSRA, rvXOR, rvOR, rvAND, rvMUL, rvDIV, rvREM:
		if in.Rd == rvZero {
			return nil
		}
		op := aluOp[in.Op]
		rd, r1, r2 := m(in.Rd), m(in.Rs1), m(in.Rs2)
		switch {
		case rd == r1:
			return seq(isa.Inst{Op: op, Rd: rd, Rs: r2})
		case rd == r2 && aluCommutes[in.Op]:
			return seq(isa.Inst{Op: op, Rd: rd, Rs: r1})
		case rd == r2:
			// rd = rs1 OP rd needs the reserved scratch register.
			return seq(mov(vxScratch, r1),
				isa.Inst{Op: op, Rd: vxScratch, Rs: rd},
				mov(rd, vxScratch))
		default:
			return seq(mov(rd, r1), isa.Inst{Op: op, Rd: rd, Rs: r2})
		}

	case rvFENCE:
		return nil // pure ordering; the VX machine is sequentially consistent

	case rvECALL:
		num, ok := l.resolveSysNum(i)
		if !ok {
			l.refuse(in.Addr, "ecall with unresolved a7 (no dominating `li a7, n` in the basic block)")
			return nil
		}
		a0 := m(rvA0)
		switch num {
		case rvSysExit:
			return seq(mov(vxSysReg, a0), isa.Inst{Op: isa.OpSys, Imm: isa.SysExit})
		case rvSysPutChar:
			return seq(mov(vxSysReg, a0), isa.Inst{Op: isa.OpSys, Imm: isa.SysPutChar})
		case rvSysGetChar:
			return seq(isa.Inst{Op: isa.OpSys, Imm: isa.SysGetChar}, mov(a0, vxScratch))
		case rvSysWriteInt:
			return seq(mov(vxSysReg, a0), isa.Inst{Op: isa.OpSys, Imm: isa.SysWriteInt})
		default:
			l.refuse(in.Addr, "ecall %d outside the vcfr runtime convention (93, 1001-1003)", num)
			return nil
		}

	case rvEBREAK:
		return seq(isa.Inst{Op: isa.OpHalt})

	default:
		l.refuse(in.Addr, "no lowering for %s", in)
		return nil
	}
}

// writesRV reports whether the instruction writes register r.
func writesRV(in RVInst, r RVReg) bool {
	switch in.Op {
	case rvLUI, rvAUIPC, rvJAL, rvJALR,
		rvLB, rvLBU, rvLW, rvLWU, rvLD,
		rvADDI, rvSLTI, rvSLTIU, rvXORI, rvORI, rvANDI, rvSLLI, rvSRLI, rvSRAI,
		rvADD, rvSUB, rvSLL, rvSLT, rvSLTU, rvXOR, rvSRL, rvSRA, rvOR, rvAND,
		rvMUL, rvDIV, rvREM:
		return in.Rd == r
	case rvECALL:
		return r == rvA0
	}
	return false
}

// resolveSysNum statically resolves a7 at an ecall by walking backward
// through the straight-line predecessors: it must find `li a7, n` before
// any other a7 write, any control transfer, or any join point (a branch
// target or function entry), all of which make the value path-dependent.
func (l *lifter) resolveSysNum(i int) (int64, bool) {
	for j := i - 1; j >= 0 && i-j <= 64; j-- {
		s := &l.slots[j]
		if s.pad {
			return 0, false
		}
		if s.consumed {
			continue
		}
		in := s.inst
		if in.Op == rvADDI && in.Rd == rvA7 && in.Rs1 == rvZero {
			return in.Imm, true
		}
		if writesRV(in, rvA7) {
			return 0, false
		}
		switch in.Op {
		case rvJAL, rvJALR, rvBEQ, rvBNE, rvBLT, rvBGE, rvBLTU, rvBGEU, rvECALL, rvEBREAK:
			return 0, false
		}
		if l.targets[in.Addr] || l.funcAt[in.Addr] {
			return 0, false
		}
	}
	return 0, false
}

// checkFuncSymbols refuses function symbols that do not name a lifted
// instruction start — a symbol into padding or mid-pair would seed the CFG
// leader algorithm with a bogus ground-truth entry.
func (l *lifter) checkFuncSymbols() {
	for _, s := range l.funcList {
		idx, ok := l.idxAt[s.Value]
		if !ok || l.slots[idx].pad || l.slots[idx].consumed {
			l.refuse(s.Value, "function symbol %s does not name a lifted instruction", s.Name)
		}
	}
}

// dataPtr is one 8-byte data word holding a text address, to be rewritten
// to the lifted address during emission.
type dataPtr struct {
	segIdx int
	off    int
	rv     uint64
}

// scanDataPointers finds 8-byte-aligned data words pointing into text —
// function-pointer tables and jump tables. Grounded targets (function
// symbols, landing pads) get relocations so ILR can retarget them;
// ungrounded hits are rewritten but stay scan-only failover candidates.
// A pointer into the middle of an instruction refuses the lift.
func (l *lifter) scanDataPointers() {
	for si := range l.f.Segments {
		seg := &l.f.Segments[si]
		if seg.Flags&pfX != 0 {
			continue
		}
		for off := 0; off+8 <= len(seg.Data); off += 8 {
			v := binary.LittleEndian.Uint64(seg.Data[off:])
			if v < l.text.Vaddr || v >= l.text.End() {
				continue
			}
			idx, ok := l.idxAt[v]
			if !ok || l.slots[idx].pad || l.slots[idx].consumed {
				l.refuse(seg.Vaddr+uint64(off), "data word holds %#x, inside an instruction or padding", v)
				continue
			}
			l.dataPtrs = append(l.dataPtrs, dataPtr{segIdx: si, off: off, rv: v})
		}
	}
}

// emit lays out the lifted text, encodes it, rewrites data pointers, and
// assembles the final VX image.
func (l *lifter) emit() (*program.Image, error) {
	// Entry shim: pin the zero register, then jump to the lifted entry.
	// (The VX machine owns sp and zeroes registers; RV code relies only on
	// x0 being zero, which r12 now is — and nothing ever writes it.)
	const shimSize = 6 + 5
	eIdx, ok := l.idxAt[l.f.Entry]
	if !ok || l.slots[eIdx].pad || l.slots[eIdx].consumed {
		return nil, parseErr("entry", "%#x is not a lifted instruction", l.f.Entry)
	}

	// Layout: offsets first, then pick the base. Identity-map the text base
	// when the (larger) lifted text still fits without touching a data
	// segment; otherwise place it page-aligned after the last segment.
	ofs := uint32(shimSize)
	for i := range l.slots {
		l.slots[i].vxAddr = ofs
		ofs += uint32(l.slots[i].size)
	}
	totalText := ofs

	var maxEnd uint64
	for i := range l.f.Segments {
		seg := &l.f.Segments[i]
		if seg.Flags&pfX != 0 {
			continue
		}
		if seg.Vaddr+uint64(len(seg.Data)) > maxEnd {
			maxEnd = seg.Vaddr + uint64(len(seg.Data))
		}
		if seg.End() > liftAddrCeiling {
			return nil, parseErr("segments", "data segment at %#x ends past the lift ceiling %#x",
				seg.Vaddr, uint64(liftAddrCeiling))
		}
	}
	base := uint32(l.text.Vaddr)
	if l.text.Vaddr > liftAddrCeiling {
		return nil, parseErr("segments", "text at %#x past the lift ceiling %#x", l.text.Vaddr, uint64(liftAddrCeiling))
	}
	for i := range l.f.Segments {
		seg := &l.f.Segments[i]
		if seg.Flags&pfX != 0 {
			continue
		}
		if uint64(base)+uint64(totalText) > seg.Vaddr && uint64(base) < seg.End() {
			base = uint32((maxEnd + 0xfff) &^ 0xfff)
			l.report.Relocated = true
			break
		}
	}
	if uint64(base)+uint64(totalText) > liftAddrCeiling {
		return nil, parseErr("text", "lifted text [%#x,%#x) past the lift ceiling %#x",
			base, uint64(base)+uint64(totalText), uint64(liftAddrCeiling))
	}
	for i := range l.slots {
		l.slots[i].vxAddr += base
	}

	img := &program.Image{Name: l.name, Entry: base}

	// Encode the text.
	grounded := func(rv uint64) bool { return l.funcAt[rv] || l.lpadAt[rv] }
	buf := make([]byte, 0, totalText)
	addReloc := func(addr uint32) {
		img.Relocs = append(img.Relocs, program.Reloc{Addr: addr, InCode: true})
	}
	buf = isa.Encode(buf, movi(vxZero, 0))
	buf = isa.Encode(buf, isa.Inst{Op: isa.OpJmp, Target: l.slots[eIdx].vxAddr})
	addReloc(base + 6 + isa.TargetFieldOffset)
	for i := range l.slots {
		s := &l.slots[i]
		for _, op := range s.ops {
			cur := base + uint32(len(buf))
			vx := op.vx
			switch {
			case op.hasRVTarget:
				vx.Target = l.slots[l.idxAt[op.rvTarget]].vxAddr
				addReloc(cur + isa.TargetFieldOffset)
			case op.skipLocal:
				vx.Target = s.vxAddr + uint32(s.size)
				addReloc(cur + isa.TargetFieldOffset)
			case op.hasMoviRV:
				vx.Imm = int32(l.slots[l.idxAt[op.moviRV]].vxAddr)
				if grounded(op.moviRV) {
					img.Relocs = append(img.Relocs, program.Reloc{Addr: cur + 2, InCode: true})
					l.report.GroundedPtrs++
				} else {
					l.report.ScanOnlyPtrs++
				}
			}
			buf = isa.Encode(buf, vx)
			l.report.VXInstructions++
		}
	}
	if uint32(len(buf)) != totalText {
		return nil, fmt.Errorf("realbin: internal: emitted %d text bytes, laid out %d", len(buf), totalText)
	}
	l.report.TextBytes = len(buf)
	img.Segments = append(img.Segments, program.Segment{
		Name: program.SegText, Addr: base, Data: buf, Perm: program.PermR | program.PermX,
	})

	// Data segments: identity-mapped copies with text pointers rewritten.
	segName := func(flags uint32, n int) string {
		name := "rodata"
		if flags&pfW != 0 {
			name = "data"
		}
		if n > 0 {
			name = fmt.Sprintf("%s%d", name, n+1)
		}
		return name
	}
	segIdxToImage := map[int]int{}
	counts := map[uint32]int{}
	for si := range l.f.Segments {
		seg := &l.f.Segments[si]
		if seg.Flags&pfX != 0 {
			continue
		}
		perm := program.PermR
		if seg.Flags&pfW != 0 {
			perm |= program.PermW
		}
		flagKey := seg.Flags & pfW
		segIdxToImage[si] = len(img.Segments)
		img.Segments = append(img.Segments, program.Segment{
			Name: segName(seg.Flags, counts[flagKey]),
			Addr: uint32(seg.Vaddr),
			Data: append([]byte(nil), seg.Data...),
			Perm: perm,
		})
		counts[flagKey]++
	}
	for _, p := range l.dataPtrs {
		is := &img.Segments[segIdxToImage[p.segIdx]]
		vx := l.slots[l.idxAt[p.rv]].vxAddr
		binary.LittleEndian.PutUint32(is.Data[p.off:], vx)
		binary.LittleEndian.PutUint32(is.Data[p.off+4:], 0)
		if grounded(p.rv) {
			img.Relocs = append(img.Relocs, program.Reloc{Addr: is.Addr + uint32(p.off), InCode: false})
			l.report.GroundedPtrs++
		} else {
			l.report.ScanOnlyPtrs++
		}
	}

	// Landing-pad table: one relocated word per pad, so every pad is a
	// ground-truth (and retargetable) indirect candidate even with no
	// static reference — the CET-paper guarantee.
	if len(l.lpadAt) > 0 {
		end := uint64(base) + uint64(totalText)
		if maxEnd > end {
			end = maxEnd
		}
		taddr := uint32((end + 0xfff) &^ 0xfff)
		var pads []uint64
		for a := range l.lpadAt {
			pads = append(pads, a)
		}
		sort.Slice(pads, func(i, j int) bool { return pads[i] < pads[j] })
		tdata := make([]byte, 0, 4*len(pads))
		for k, a := range pads {
			tdata = binary.LittleEndian.AppendUint32(tdata, l.slots[l.idxAt[a]].vxAddr)
			img.Relocs = append(img.Relocs, program.Reloc{Addr: taddr + uint32(4*k), InCode: false})
			l.report.GroundedPtrs++
		}
		if uint64(taddr)+uint64(len(tdata)) > liftAddrCeiling {
			return nil, parseErr("targets", "landing-pad table past the lift ceiling")
		}
		img.Segments = append(img.Segments, program.Segment{
			Name: "targets", Addr: taddr, Data: tdata, Perm: program.PermR,
		})
		l.report.LandingPads = len(pads)
	}

	// Symbols: lifted function entries plus identity-mapped data objects.
	for _, s := range l.f.Symbols {
		if s.Func {
			if idx, ok := l.idxAt[s.Value]; ok && !l.slots[idx].pad && !l.slots[idx].consumed {
				img.Symbols = append(img.Symbols, program.Symbol{
					Name: s.Name, Addr: l.slots[idx].vxAddr, Func: true,
				})
			}
			continue
		}
		if s.Value > 0xffff_ffff {
			continue
		}
		if seg := img.SegAt(uint32(s.Value)); seg != nil && seg.Perm&program.PermX == 0 {
			img.Symbols = append(img.Symbols, program.Symbol{
				Name: s.Name, Addr: uint32(s.Value), Size: uint32(s.Size),
			})
		}
	}
	sort.Slice(img.Relocs, func(i, j int) bool { return img.Relocs[i].Addr < img.Relocs[j].Addr })
	return img, nil
}
