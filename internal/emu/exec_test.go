package emu

import (
	"strings"
	"testing"
	"testing/quick"

	"vcfr/internal/isa"
	"vcfr/internal/program"
)

func newTestState() *State {
	s := NewState(program.NewAddressSpace())
	s.SetSP(0x1000)
	return s
}

func exec(t *testing.T, s *State, in isa.Inst) Outcome {
	t.Helper()
	out, err := Exec(s, in)
	if err != nil {
		t.Fatalf("Exec(%v): %v", in, err)
	}
	return out
}

func TestExecALUBasics(t *testing.T) {
	s := newTestState()
	exec(t, s, isa.Inst{Op: isa.OpMovRI, Rd: 1, Imm: 10})
	exec(t, s, isa.Inst{Op: isa.OpMovRI, Rd: 2, Imm: 3})
	exec(t, s, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs: 2})
	if s.R[1] != 13 {
		t.Errorf("add: r1 = %d, want 13", s.R[1])
	}
	exec(t, s, isa.Inst{Op: isa.OpMul, Rd: 1, Rs: 2})
	if s.R[1] != 39 {
		t.Errorf("mul: r1 = %d, want 39", s.R[1])
	}
	exec(t, s, isa.Inst{Op: isa.OpDiv, Rd: 1, Rs: 2})
	if s.R[1] != 13 {
		t.Errorf("div: r1 = %d, want 13", s.R[1])
	}
	exec(t, s, isa.Inst{Op: isa.OpMod, Rd: 1, Rs: 2})
	if s.R[1] != 1 {
		t.Errorf("mod: r1 = %d, want 1", s.R[1])
	}
	exec(t, s, isa.Inst{Op: isa.OpNeg, Rd: 1})
	if int32(s.R[1]) != -1 {
		t.Errorf("neg: r1 = %d, want -1", int32(s.R[1]))
	}
	if !s.N || s.Z {
		t.Error("neg flags wrong")
	}
	exec(t, s, isa.Inst{Op: isa.OpNot, Rd: 1})
	if s.R[1] != 0 || !s.Z {
		t.Errorf("not: r1 = %d, Z=%v", s.R[1], s.Z)
	}
}

func TestExecSignedDivision(t *testing.T) {
	s := newTestState()
	s.R[1] = uint32(0xfffffff9) // -7
	s.R[2] = 2
	exec(t, s, isa.Inst{Op: isa.OpDiv, Rd: 1, Rs: 2})
	if int32(s.R[1]) != -3 {
		t.Errorf("-7/2 = %d, want -3 (truncated)", int32(s.R[1]))
	}
	s.R[1] = uint32(0xfffffff9)
	exec(t, s, isa.Inst{Op: isa.OpMod, Rd: 1, Rs: 2})
	if int32(s.R[1]) != -1 {
		t.Errorf("-7%%2 = %d, want -1", int32(s.R[1]))
	}
}

func TestExecDivideByZeroFaults(t *testing.T) {
	for _, op := range []isa.Op{isa.OpDiv, isa.OpMod} {
		s := newTestState()
		s.R[1] = 5
		if _, err := Exec(s, isa.Inst{Op: op, Rd: 1, Rs: 2, Addr: 0x42}); err == nil {
			t.Errorf("%s by zero did not fault", op)
		}
	}
}

func TestExecFlagsCarryOverflow(t *testing.T) {
	tests := []struct {
		name       string
		a, b       uint32
		op         isa.Op
		z, n, c, v bool
	}{
		{"add no flags", 1, 2, isa.OpAdd, false, false, false, false},
		{"add carry", 0xffffffff, 1, isa.OpAdd, true, false, true, false},
		{"add overflow", 0x7fffffff, 1, isa.OpAdd, false, true, false, true},
		{"add neg overflow", 0x80000000, 0x80000000, isa.OpAdd, true, false, true, true},
		{"sub zero", 5, 5, isa.OpSub, true, false, false, false},
		{"sub borrow", 3, 5, isa.OpSub, false, true, true, false},
		{"sub overflow", 0x80000000, 1, isa.OpSub, false, false, false, true},
		{"cmp equal", 7, 7, isa.OpCmp, true, false, false, false},
		{"cmp less unsigned", 2, 9, isa.OpCmp, false, true, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newTestState()
			s.R[1], s.R[2] = tt.a, tt.b
			exec(t, s, isa.Inst{Op: tt.op, Rd: 1, Rs: 2})
			if s.Z != tt.z || s.N != tt.n || s.C != tt.c || s.V != tt.v {
				t.Errorf("flags Z=%v N=%v C=%v V=%v, want Z=%v N=%v C=%v V=%v",
					s.Z, s.N, s.C, s.V, tt.z, tt.n, tt.c, tt.v)
			}
			if tt.op == isa.OpCmp && s.R[1] != tt.a {
				t.Error("cmp modified its operand")
			}
		})
	}
}

// TestQuickSubFlagsMatchWideArithmetic cross-checks the sub/cmp flag logic
// against 64-bit reference arithmetic for arbitrary operands.
func TestQuickSubFlagsMatchWideArithmetic(t *testing.T) {
	s := newTestState()
	f := func(a, b uint32) bool {
		s.R[1], s.R[2] = a, b
		exec(t, s, isa.Inst{Op: isa.OpCmp, Rd: 1, Rs: 2})
		res := a - b
		wantZ := res == 0
		wantN := int32(res) < 0
		wantC := uint64(a) < uint64(b)
		wide := int64(int32(a)) - int64(int32(b))
		wantV := wide < -(1<<31) || wide > (1<<31)-1
		return s.Z == wantZ && s.N == wantN && s.C == wantC && s.V == wantV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAddFlagsMatchWideArithmetic does the same for addition.
func TestQuickAddFlagsMatchWideArithmetic(t *testing.T) {
	s := newTestState()
	f := func(a, b uint32) bool {
		s.R[1], s.R[2] = a, b
		exec(t, s, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs: 2})
		res := a + b
		wantC := uint64(a)+uint64(b) > 0xffffffff
		wide := int64(int32(a)) + int64(int32(b))
		wantV := wide < -(1<<31) || wide > (1<<31)-1
		return s.R[1] == res && s.C == wantC && s.V == wantV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecBranchConditions(t *testing.T) {
	// After cmp r1, r2 with the given values, which branches are taken?
	tests := []struct {
		a, b  uint32
		taken map[isa.Op]bool
	}{
		{5, 5, map[isa.Op]bool{
			isa.OpJe: true, isa.OpJne: false, isa.OpJl: false, isa.OpJge: true,
			isa.OpJg: false, isa.OpJle: true, isa.OpJb: false, isa.OpJae: true}},
		{3, 9, map[isa.Op]bool{
			isa.OpJe: false, isa.OpJne: true, isa.OpJl: true, isa.OpJge: false,
			isa.OpJg: false, isa.OpJle: true, isa.OpJb: true, isa.OpJae: false}},
		{9, 3, map[isa.Op]bool{
			isa.OpJl: false, isa.OpJg: true, isa.OpJb: false, isa.OpJae: true}},
		// signed vs unsigned disagreement: -1 vs 1
		{0xffffffff, 1, map[isa.Op]bool{
			isa.OpJl: true, isa.OpJg: false, isa.OpJb: false, isa.OpJae: true}},
	}
	for _, tt := range tests {
		s := newTestState()
		s.R[1], s.R[2] = tt.a, tt.b
		exec(t, s, isa.Inst{Op: isa.OpCmp, Rd: 1, Rs: 2})
		for op, want := range tt.taken {
			out := exec(t, s, isa.Inst{Op: op, Target: 0x500})
			if out.Taken != want {
				t.Errorf("cmp(%d,%d) then %s: taken = %v, want %v",
					int32(tt.a), int32(tt.b), op, out.Taken, want)
			}
			if out.Taken && out.Target != 0x500 {
				t.Errorf("%s target = %#x", op, out.Target)
			}
		}
	}
}

func TestExecStackAndCall(t *testing.T) {
	s := newTestState()
	s.R[3] = 0xabcd
	out := exec(t, s, isa.Inst{Op: isa.OpPush, Rd: 3})
	if out.MemKind != MemStore || out.MemAddr != 0xffc {
		t.Errorf("push outcome = %+v", out)
	}
	if s.SP() != 0xffc {
		t.Errorf("sp after push = %#x", s.SP())
	}
	s.R[3] = 0
	out = exec(t, s, isa.Inst{Op: isa.OpPop, Rd: 3})
	if s.R[3] != 0xabcd || s.SP() != 0x1000 {
		t.Errorf("pop: r3=%#x sp=%#x", s.R[3], s.SP())
	}
	if out.MemKind != MemLoad {
		t.Error("pop is not a load")
	}

	// call pushes the fall-through address and reports a taken call.
	out = exec(t, s, isa.Inst{Op: isa.OpCall, Target: 0x2000, Addr: 0x100})
	if !out.Taken || !out.IsCall || out.Target != 0x2000 {
		t.Errorf("call outcome = %+v", out)
	}
	if got := s.Mem.ReadWord(s.SP()); got != 0x105 {
		t.Errorf("pushed RA = %#x, want 0x105", got)
	}
	// ret pops it back.
	out = exec(t, s, isa.Inst{Op: isa.OpRet, Addr: 0x2000})
	if !out.Taken || !out.IsRet || out.Target != 0x105 {
		t.Errorf("ret outcome = %+v", out)
	}
}

func TestExecCallRThroughRegister(t *testing.T) {
	s := newTestState()
	s.R[6] = 0x3000
	out := exec(t, s, isa.Inst{Op: isa.OpCallR, Rd: 6, Addr: 0x200})
	if !out.Taken || !out.IsCall || out.Target != 0x3000 {
		t.Errorf("callr outcome = %+v", out)
	}
	if got := s.Mem.ReadWord(s.SP()); got != 0x202 {
		t.Errorf("pushed RA = %#x, want 0x202", got)
	}
	s.R[7] = 0x4000
	out = exec(t, s, isa.Inst{Op: isa.OpJmpR, Rd: 7})
	if !out.Taken || out.IsCall || out.Target != 0x4000 {
		t.Errorf("jmpr outcome = %+v", out)
	}
}

func TestExecMemoryOps(t *testing.T) {
	s := newTestState()
	s.R[1] = 0x5000
	s.R[2] = 0xdeadbeef
	exec(t, s, isa.Inst{Op: isa.OpStore, Rd: 1, Rs: 2, Imm: 8})
	if got := s.Mem.ReadWord(0x5008); got != 0xdeadbeef {
		t.Errorf("store: mem = %#x", got)
	}
	exec(t, s, isa.Inst{Op: isa.OpLoad, Rd: 3, Rs: 1, Imm: 8})
	if s.R[3] != 0xdeadbeef {
		t.Errorf("load: r3 = %#x", s.R[3])
	}
	exec(t, s, isa.Inst{Op: isa.OpStoreB, Rd: 1, Rs: 2, Imm: 100})
	exec(t, s, isa.Inst{Op: isa.OpLoadB, Rd: 4, Rs: 1, Imm: 100})
	if s.R[4] != 0xef {
		t.Errorf("loadb: r4 = %#x, want 0xef", s.R[4])
	}
	s.R[5] = 4
	exec(t, s, isa.Inst{Op: isa.OpStoreR, Rd: 1, Rs: 2, Rt: 5})
	exec(t, s, isa.Inst{Op: isa.OpLoadR, Rd: 6, Rs: 1, Rt: 5})
	if s.R[6] != 0xdeadbeef {
		t.Errorf("loadr: r6 = %#x", s.R[6])
	}
	exec(t, s, isa.Inst{Op: isa.OpLea, Rd: 7, Rs: 1, Imm: -16})
	if s.R[7] != 0x4ff0 {
		t.Errorf("lea: r7 = %#x", s.R[7])
	}
}

func TestExecSyscalls(t *testing.T) {
	s := newTestState()
	s.In = []byte("AB")
	s.R[1] = 'x'
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysPutChar})
	neg := int32(-42)
	s.R[1] = uint32(neg)
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysWriteInt})
	if string(s.Out) != "x-42" {
		t.Errorf("out = %q", s.Out)
	}
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysGetChar})
	if s.R[0] != 'A' {
		t.Errorf("getchar = %#x", s.R[0])
	}
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysGetChar})
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysGetChar})
	if s.R[0] != 0xffffffff {
		t.Errorf("getchar at EOF = %#x, want EOF marker", s.R[0])
	}
	s.R[1] = 7
	exec(t, s, isa.Inst{Op: isa.OpSys, Imm: isa.SysExit})
	if !s.Halted || s.ExitCode != 7 {
		t.Errorf("exit: halted=%v code=%d", s.Halted, s.ExitCode)
	}
	if _, err := Exec(newTestState(), isa.Inst{Op: isa.OpSys, Imm: 99}); err == nil {
		t.Error("unknown syscall did not fault")
	}
}

func TestExecHooks(t *testing.T) {
	s := newTestState()
	var storedAddrs []uint32
	var callPushes int
	s.Hooks = Hooks{
		ReturnAddr: func(next uint32) uint32 { return next ^ 0xf0000000 },
		LoadedWord: func(addr, val uint32) uint32 { return val + 1 },
		StoredWord: func(addr, val uint32, isCallPush bool) {
			storedAddrs = append(storedAddrs, addr)
			if isCallPush {
				callPushes++
			}
		},
	}
	exec(t, s, isa.Inst{Op: isa.OpCall, Target: 0x9000, Addr: 0x100})
	if got := s.Mem.ReadWord(s.SP()); got != 0x105^0xf0000000 {
		t.Errorf("hooked RA = %#x", got)
	}
	if callPushes != 1 {
		t.Errorf("callPushes = %d", callPushes)
	}
	// Explicit pop goes through LoadedWord; ret must not.
	sp := s.SP()
	exec(t, s, isa.Inst{Op: isa.OpPop, Rd: 4})
	if s.R[4] != (0x105^0xf0000000)+1 {
		t.Errorf("hooked pop = %#x", s.R[4])
	}
	s.SetSP(sp)
	out := exec(t, s, isa.Inst{Op: isa.OpRet})
	if out.Target != 0x105^0xf0000000 {
		t.Errorf("ret target = %#x: LoadedWord hook must not apply to ret", out.Target)
	}
	// Plain store observed, not a call push.
	s.R[1] = 0x5000
	exec(t, s, isa.Inst{Op: isa.OpStore, Rd: 1, Rs: 2})
	if callPushes != 1 || len(storedAddrs) != 2 {
		t.Errorf("store hook counts: pushes=%d stores=%d", callPushes, len(storedAddrs))
	}
}

func TestFetchDecode(t *testing.T) {
	mem := program.NewAddressSpace()
	code := isa.Encode(nil, isa.Inst{Op: isa.OpMovRI, Rd: 2, Imm: 77})
	mem.WriteBytes(0x800, code)
	in, err := FetchDecode(mem, 0x800)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpMovRI || in.Imm != 77 || in.Addr != 0x800 {
		t.Errorf("FetchDecode = %+v", in)
	}
	if _, err := FetchDecode(mem, 0x900); err == nil {
		t.Error("FetchDecode of zeroes succeeded")
	}
}

func TestAppendInt(t *testing.T) {
	tests := []struct {
		v    int32
		want string
	}{
		{0, "0"}, {7, "7"}, {-7, "-7"}, {2147483647, "2147483647"},
		{-2147483648, "-2147483648"}, {1000, "1000"},
	}
	for _, tt := range tests {
		if got := string(appendInt(nil, tt.v)); got != tt.want {
			t.Errorf("appendInt(%d) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

// TestDecodeBytesFaultText checks that a decode failure still surfaces as a
// fetch fault whose message carries the decoder's text: fault and attack
// classify outcomes by the "fetch:" prefix.
func TestDecodeBytesFaultText(t *testing.T) {
	_, err := DecodeBytes([]byte{0xee, 0, 0, 0, 0, 0}, 0x1000)
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("DecodeBytes error = %T %v, want *Fault", err, err)
	}
	if want := "fetch: isa: invalid opcode byte"; !strings.HasPrefix(f.Msg, want) {
		t.Errorf("Fault.Msg = %q, want prefix %q", f.Msg, want)
	}
	if f.Msg != "fetch: isa: invalid opcode byte: 0xee at 0x1000" {
		t.Errorf("Fault.Msg = %q", f.Msg)
	}
}
