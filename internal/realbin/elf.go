// ELF64 parsing: program headers, PT_LOAD segment extraction, and the
// .symtab/.strtab symbol table. The parser is hand-rolled rather than
// delegating to debug/elf so that every field read is bounds-checked with a
// precise diagnostic and the whole surface is fuzzable (FuzzELFParse):
// malformed headers, truncated segments, and overlapping loads must come
// back as errors, never as panics or silently wrong images.
package realbin

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// ELF constants for the subset we accept.
const (
	elfMagic      = "\x7fELF"
	elfClass64    = 2
	elfDataLE     = 1
	elfTypeExec   = 2   // ET_EXEC: statically linked, fixed load addresses
	elfMachRISCV  = 243 // EM_RISCV
	elfPhdrSize   = 56
	elfShdrSize   = 64
	elfSymSize    = 24
	elfHeaderSize = 64

	ptLoad    = 1
	shtSymtab = 2

	pfX = 1
	pfW = 2
	pfR = 4

	sttFunc = 2
)

// Parsing limits. ELF headers are attacker-controlled input (and fuzz
// input); these caps keep a 100-byte file from demanding gigabytes of
// demand-zero memory or a million symbol-table walks.
const (
	maxPhnum   = 64
	maxShnum   = 256
	maxSymbols = 1 << 16
	maxMemSize = 1 << 24 // 16 MiB total across PT_LOADs
)

// ELFSegment is one PT_LOAD, with BSS (memsz > filesz) zero-filled.
type ELFSegment struct {
	Vaddr uint64
	Data  []byte
	Flags uint32 // PF_R|PF_W|PF_X
}

// End returns the first address past the segment.
func (s *ELFSegment) End() uint64 { return s.Vaddr + uint64(len(s.Data)) }

// ELFSymbol is one .symtab entry we keep (named, defined, object or func).
type ELFSymbol struct {
	Name  string
	Value uint64
	Size  uint64
	Func  bool
}

// ELFFile is the parsed, validated view the lifter consumes.
type ELFFile struct {
	Entry    uint64
	Machine  uint16
	Segments []ELFSegment // ascending Vaddr, non-overlapping
	Symbols  []ELFSymbol
}

// Text returns the executable segment. ParseELF guarantees exactly one.
func (f *ELFFile) Text() *ELFSegment {
	for i := range f.Segments {
		if f.Segments[i].Flags&pfX != 0 {
			return &f.Segments[i]
		}
	}
	return nil
}

// ParseError reports a malformed ELF input.
type ParseError struct {
	Field  string
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("realbin: bad ELF %s: %s", e.Field, e.Reason)
}

func parseErr(field, format string, args ...any) error {
	return &ParseError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// field reads size bytes at off, bounds-checked.
func field(b []byte, off, size uint64) ([]byte, error) {
	end := off + size
	if end < off || end > uint64(len(b)) {
		return nil, parseErr("offset", "[%#x,%#x) outside %d-byte file", off, end, len(b))
	}
	return b[off:end:end], nil
}

// ParseELF parses a little-endian ELF64 executable. It never panics; any
// input outside the accepted subset (wrong class, endianness, type, out of
// bounds offsets, overlapping loads, oversized memory demands) returns a
// *ParseError describing the first violated invariant.
func ParseELF(b []byte) (*ELFFile, error) {
	if uint64(len(b)) < elfHeaderSize {
		return nil, parseErr("header", "%d bytes, need %d", len(b), elfHeaderSize)
	}
	if string(b[:4]) != elfMagic {
		return nil, parseErr("magic", "%x", b[:4])
	}
	if b[4] != elfClass64 {
		return nil, parseErr("class", "%d, want ELFCLASS64", b[4])
	}
	if b[5] != elfDataLE {
		return nil, parseErr("data encoding", "%d, want little-endian", b[5])
	}
	if b[6] != 1 {
		return nil, parseErr("version", "%d", b[6])
	}
	le := binary.LittleEndian
	if t := le.Uint16(b[16:]); t != elfTypeExec {
		return nil, parseErr("type", "%d, want ET_EXEC (dynamic objects unsupported)", t)
	}
	f := &ELFFile{
		Machine: le.Uint16(b[18:]),
		Entry:   le.Uint64(b[24:]),
	}
	phoff := le.Uint64(b[32:])
	shoff := le.Uint64(b[40:])
	phentsize := uint64(le.Uint16(b[54:]))
	phnum := uint64(le.Uint16(b[56:]))
	shentsize := uint64(le.Uint16(b[58:]))
	shnum := uint64(le.Uint16(b[60:]))

	// Program headers → PT_LOAD segments.
	if phnum > maxPhnum {
		return nil, parseErr("phnum", "%d exceeds limit %d", phnum, maxPhnum)
	}
	if phnum > 0 && phentsize != elfPhdrSize {
		return nil, parseErr("phentsize", "%d, want %d", phentsize, elfPhdrSize)
	}
	var totalMem uint64
	for i := uint64(0); i < phnum; i++ {
		ph, err := field(b, phoff+i*elfPhdrSize, elfPhdrSize)
		if err != nil {
			return nil, parseErr("program header", "entry %d: %v", i, err)
		}
		if le.Uint32(ph) != ptLoad {
			continue
		}
		seg := ELFSegment{
			Flags: le.Uint32(ph[4:]),
			Vaddr: le.Uint64(ph[16:]),
		}
		off := le.Uint64(ph[8:])
		filesz := le.Uint64(ph[32:])
		memsz := le.Uint64(ph[40:])
		if memsz < filesz {
			return nil, parseErr("program header", "entry %d: memsz %#x < filesz %#x", i, memsz, filesz)
		}
		if memsz == 0 {
			continue
		}
		// Compare against the remaining allowance rather than summing first:
		// a memsz near 2^64 would wrap the running total back under the cap.
		if memsz > maxMemSize-totalMem || seg.Vaddr+memsz < seg.Vaddr {
			return nil, parseErr("program header", "entry %d: load of %#x bytes at %#x exceeds limits", i, memsz, seg.Vaddr)
		}
		totalMem += memsz
		raw, err := field(b, off, filesz)
		if err != nil {
			return nil, parseErr("program header", "entry %d: file range: %v", i, err)
		}
		seg.Data = make([]byte, memsz)
		copy(seg.Data, raw)
		f.Segments = append(f.Segments, seg)
	}
	if len(f.Segments) == 0 {
		return nil, parseErr("program headers", "no non-empty PT_LOAD segments")
	}
	sort.SliceStable(f.Segments, func(i, j int) bool {
		return f.Segments[i].Vaddr < f.Segments[j].Vaddr
	})
	var nx int
	for i := range f.Segments {
		if i > 0 && f.Segments[i].Vaddr < f.Segments[i-1].End() {
			return nil, parseErr("program headers", "PT_LOAD at %#x overlaps predecessor ending %#x",
				f.Segments[i].Vaddr, f.Segments[i-1].End())
		}
		if f.Segments[i].Flags&pfX != 0 {
			nx++
		}
	}
	if nx != 1 {
		return nil, parseErr("program headers", "%d executable PT_LOADs, want exactly 1", nx)
	}
	t := f.Text()
	if f.Entry < t.Vaddr || f.Entry >= t.End() {
		return nil, parseErr("entry", "%#x outside text [%#x,%#x)", f.Entry, t.Vaddr, t.End())
	}

	// Section headers → .symtab, if present. A missing or damaged section
	// table degrades to "no symbols" only when shnum says there is nothing
	// to parse; a declared-but-unreadable table is an error.
	if shnum == 0 {
		return f, nil
	}
	if shnum > maxShnum {
		return nil, parseErr("shnum", "%d exceeds limit %d", shnum, maxShnum)
	}
	if shentsize != elfShdrSize {
		return nil, parseErr("shentsize", "%d, want %d", shentsize, elfShdrSize)
	}
	type shdr struct {
		typ            uint32
		off, size, ent uint64
		link           uint32
	}
	sections := make([]shdr, shnum)
	for i := uint64(0); i < shnum; i++ {
		sh, err := field(b, shoff+i*elfShdrSize, elfShdrSize)
		if err != nil {
			return nil, parseErr("section header", "entry %d: %v", i, err)
		}
		sections[i] = shdr{
			typ:  le.Uint32(sh[4:]),
			off:  le.Uint64(sh[24:]),
			size: le.Uint64(sh[32:]),
			link: le.Uint32(sh[40:]),
			ent:  le.Uint64(sh[56:]),
		}
	}
	for i, sh := range sections {
		if sh.typ != shtSymtab {
			continue
		}
		if sh.ent != elfSymSize {
			return nil, parseErr("symtab", "section %d entsize %d, want %d", i, sh.ent, elfSymSize)
		}
		if sh.size%elfSymSize != 0 {
			return nil, parseErr("symtab", "section %d size %#x not a multiple of %d", i, sh.size, elfSymSize)
		}
		n := sh.size / elfSymSize
		if n > maxSymbols {
			return nil, parseErr("symtab", "%d symbols exceeds limit %d", n, maxSymbols)
		}
		if int(sh.link) >= len(sections) {
			return nil, parseErr("symtab", "string table link %d out of range", sh.link)
		}
		strs, err := field(b, sections[sh.link].off, sections[sh.link].size)
		if err != nil {
			return nil, parseErr("strtab", "%v", err)
		}
		for j := uint64(0); j < n; j++ {
			sym, err := field(b, sh.off+j*elfSymSize, elfSymSize)
			if err != nil {
				return nil, parseErr("symtab", "entry %d: %v", j, err)
			}
			nameOff := uint64(le.Uint32(sym))
			info := sym[4]
			value := le.Uint64(sym[8:])
			size := le.Uint64(sym[16:])
			if nameOff == 0 {
				continue
			}
			if nameOff >= uint64(len(strs)) {
				return nil, parseErr("symtab", "entry %d: name offset %#x outside string table", j, nameOff)
			}
			name := cString(strs[nameOff:])
			if name == "" {
				continue
			}
			f.Symbols = append(f.Symbols, ELFSymbol{
				Name:  name,
				Value: value,
				Size:  size,
				Func:  info&0xf == sttFunc,
			})
		}
		break
	}
	return f, nil
}

// cString reads a NUL-terminated string (the whole slice if unterminated).
func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
