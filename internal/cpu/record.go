package cpu

import (
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// ExecRecord is one instruction's functional outcome — everything the timing
// model consumes from the functional execute stage: the decoded instruction,
// its control-transfer outcome, its data access and its VCFR
// auto-de-randomization count.
//
// The record carries the fully decoded instruction (not just its UPC) so a
// recording stays faithful even for self-modifying images: the instruction
// that actually executed is what lands in the record.
type ExecRecord struct {
	Inst    isa.Inst
	Taken   bool        // control transferred away from the fall-through
	Target  uint32      // architectural (possibly randomized-space) target
	MemKind emu.MemKind // at most one data access per instruction
	MemAddr uint32
	Derands int  // auto-de-randomizing stack-bitmap loads (VCFR hook)
	Halt    bool // this instruction halted the machine
}

// SetRecorder installs a capture callback invoked once per successfully
// executed instruction, after the functional execute stage and before timing
// is charged. Recording does not perturb timing. nil disables capture.
func (p *Pipeline) SetRecorder(fn func(ExecRecord)) { p.recorder = fn }
