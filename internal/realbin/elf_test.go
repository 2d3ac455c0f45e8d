package realbin

import (
	"encoding/binary"
	"strings"
	"testing"

	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/realbin/rvasm"
)

// TestParseFixture parses a checked-in fixture and checks the extracted
// structure.
func TestParseFixture(t *testing.T) {
	f, err := ParseELF(fixtures.Dispatch)
	if err != nil {
		t.Fatalf("ParseELF: %v", err)
	}
	if f.Machine != elfMachRISCV {
		t.Errorf("Machine = %d", f.Machine)
	}
	if len(f.Segments) != 2 {
		t.Fatalf("got %d segments, want 2", len(f.Segments))
	}
	text := f.Text()
	if text == nil || text.Vaddr != 0x10000 {
		t.Fatalf("text = %+v", text)
	}
	if f.Entry != 0x10000 {
		t.Errorf("entry = %#x", f.Entry)
	}
	var funcs []string
	for _, s := range f.Symbols {
		if s.Func {
			funcs = append(funcs, s.Name)
		}
	}
	want := "_start op_add op_sub op_mul op_xor"
	if got := strings.Join(funcs, " "); got != want {
		t.Errorf("func symbols = %q, want %q", got, want)
	}
}

// mangle returns a copy of the dispatch fixture with patch applied.
func mangle(patch func(b []byte)) []byte {
	b := append([]byte(nil), fixtures.Dispatch...)
	patch(b)
	return b
}

func TestParseRejects(t *testing.T) {
	le := binary.LittleEndian
	tests := []struct {
		name string
		data []byte
		sub  string
	}{
		{"empty", nil, "header"},
		{"truncated", fixtures.Dispatch[:40], "header"},
		{"magic", mangle(func(b []byte) { b[0] = 'X' }), "magic"},
		{"class32", mangle(func(b []byte) { b[4] = 1 }), "class"},
		{"big-endian", mangle(func(b []byte) { b[5] = 2 }), "endian"},
		{"dyn", mangle(func(b []byte) { le.PutUint16(b[16:], 3) }), "ET_EXEC"},
		{"entry-outside-text", mangle(func(b []byte) { le.PutUint64(b[24:], 0x9999999) }), "outside text"},
		{"phnum-bomb", mangle(func(b []byte) { le.PutUint16(b[56:], 0xffff) }), "phnum"},
		{"shnum-bomb", mangle(func(b []byte) { le.PutUint16(b[60:], 0xffff) }), "shnum"},
		{"memsz-bomb", mangle(func(b []byte) { le.PutUint64(b[64+40:], 1<<40) }), "exceeds limits"},
		{"memsz-lt-filesz", mangle(func(b []byte) { le.PutUint64(b[64+40:], 1) }), "memsz"},
		{"phoff-outside", mangle(func(b []byte) { le.PutUint64(b[32:], 1<<40) }), "program header"},
		{"two-exec", mangle(func(b []byte) { le.PutUint32(b[64+56+4:], 4|1) }), "executable"},
		{"overlap", mangle(func(b []byte) { le.PutUint64(b[64+56+16:], 0x10000) }), "overlaps"},
		{"symtab-offset", mangle(func(b []byte) {
			shoff := le.Uint64(b[40:])
			le.PutUint64(b[shoff+64+24:], 1<<40) // .symtab sh_offset
		}), "symtab"},
		{"strtab-link", mangle(func(b []byte) {
			shoff := le.Uint64(b[40:])
			le.PutUint32(b[shoff+64+40:], 99) // .symtab sh_link
		}), "string table link"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseELF(tc.data)
			if err == nil {
				t.Fatalf("ParseELF succeeded, want error about %q", tc.sub)
			}
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("error %T (%v), want *ParseError", err, err)
			}
			if !strings.Contains(err.Error(), tc.sub) {
				t.Errorf("error %q does not mention %q", err, tc.sub)
			}
		})
	}
}

// TestParseRejectsMemSizeWrap feeds a second PT_LOAD whose memsz is so
// large that adding it to the text's size wraps the running total back
// under the memory cap. The parser must refuse that program header by
// index instead of trying to allocate it.
func TestParseRejectsMemSizeWrap(t *testing.T) {
	a := rvasm.New(0x10000)
	a.Fn("_start")
	a.Li("a0", 0)
	a.Li("a7", 93)
	a.Ecall()
	a.Seg("data", 0x20000, true)
	b := a.Emit("_start")
	le := binary.LittleEndian
	ph := b[64+56:]                     // program header 1: the data segment
	le.PutUint64(ph[16:], 0)            // vaddr 0, so vaddr+memsz cannot wrap
	le.PutUint64(ph[40:], ^uint64(0)-3) // memsz: 12 bytes of text + this wraps to 8
	_, err := ParseELF(b)
	if _, ok := err.(*ParseError); !ok {
		t.Fatalf("error %T (%v), want *ParseError", err, err)
	}
	if !strings.Contains(err.Error(), "entry 1") || !strings.Contains(err.Error(), "exceeds limits") {
		t.Errorf("error %q does not name program header entry 1 exceeding limits", err)
	}
}

// TestParseNoSections accepts a sectionless image (no symbols).
func TestParseNoSections(t *testing.T) {
	a := rvasm.New(0x10000)
	a.Fn("_start")
	a.Li("a0", 0)
	a.Li("a7", 93)
	a.Ecall()
	data := a.Emit("_start")
	binary.LittleEndian.PutUint16(data[60:], 0) // shnum = 0
	f, err := ParseELF(data)
	if err != nil {
		t.Fatalf("ParseELF: %v", err)
	}
	if len(f.Symbols) != 0 {
		t.Errorf("got %d symbols, want 0", len(f.Symbols))
	}
}

// TestBSSZeroFill checks memsz > filesz demand-zero extension.
func TestBSSZeroFill(t *testing.T) {
	a := rvasm.New(0x10000)
	a.Fn("_start")
	a.Li("a0", 0)
	a.Li("a7", 93)
	a.Ecall()
	seg := a.Seg("data", 0x20000, true)
	seg.Bytes([]byte{1, 2, 3})
	data := a.Emit("_start")
	// Grow the data segment's memsz past its filesz.
	binary.LittleEndian.PutUint64(data[64+56+40:], 64)
	f, err := ParseELF(data)
	if err != nil {
		t.Fatalf("ParseELF: %v", err)
	}
	d := f.Segments[1]
	if len(d.Data) != 64 || d.Data[0] != 1 || d.Data[3] != 0 || d.Data[63] != 0 {
		t.Errorf("BSS extension wrong: len=%d data=%v", len(d.Data), d.Data[:8])
	}
}
