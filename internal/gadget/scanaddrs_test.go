package gadget

import (
	"math/rand"
	"testing"

	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
	"vcfr/internal/workloads"
)

// TestScanAddrsMatchesFilteredScan pins ScanAddrs to its definition: Scan
// filtered to the probed addresses, gadget for gadget and in order. It runs
// over the 11 SPEC analogs and the 3 ELF fixtures on two inputs: the original image probed at every
// instruction start, and a sparse attacker-style view (zeroed text with a
// seeded subset of instructions copied in) probed at that subset. Addresses
// outside the text are skipped.
func TestScanAddrsMatchesFilteredScan(t *testing.T) {
	names := append(append([]string(nil), workloads.SpecNames...), workloads.ELFNames()...)
	for _, name := range names {
		w, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// The ELF fixtures are small enough that a sparse view (and
		// elf-crc32 even whole) can hold no gadget; the analogs must not,
		// or the comparison proves nothing.
		spec := w.Source == workloads.SourceSynthetic
		starts := res.Tables.OrigAddrs()
		if n := checkScanAddrs(t, name+"/orig", res.Orig, starts); n == 0 && spec {
			t.Errorf("%s/orig: no gadget at an instruction start", name)
		}

		// The sparse view: what a naive-ILR attacker reconstructs after
		// learning a random third of the instructions.
		text := res.Orig.Text()
		view := make([]byte, len(text.Data))
		rng := rand.New(rand.NewSource(int64(len(starts))))
		var learned []uint32
		for _, a := range starts {
			if rng.Intn(3) != 0 {
				continue
			}
			in, ok := res.Graph.InstAt[a]
			if !ok {
				t.Fatalf("%s: no instruction at start %#x", name, a)
			}
			copy(view[a-text.Addr:], isa.Encode(nil, in))
			learned = append(learned, a)
		}
		img := &program.Image{
			Name:     name + "+view",
			Segments: []program.Segment{{Name: "text", Addr: text.Addr, Data: view, Perm: program.PermR | program.PermX}},
		}
		if n := checkScanAddrs(t, name+"/sparse", img, learned); n == 0 && spec {
			t.Errorf("%s/sparse: no gadget in the sparse view", name)
		}

		// Addresses below and past the text contribute nothing.
		outside := append([]uint32{text.Addr - 1}, learned...)
		outside = append(outside, text.End(), text.End()+64)
		if text.Addr == 0 {
			outside = outside[1:]
		}
		got, want := ScanAddrs(img, outside, 0), ScanAddrs(img, learned, 0)
		if !sameGadgets(got, want) {
			t.Errorf("%s: out-of-text addresses changed the result: %d vs %d gadgets", name, len(got), len(want))
		}
	}
}

// checkScanAddrs compares ScanAddrs with the filtered Scan and returns the
// number of gadgets compared.
func checkScanAddrs(t *testing.T, label string, img *program.Image, addrs []uint32) int {
	t.Helper()
	keep := make(map[uint32]bool, len(addrs))
	for _, a := range addrs {
		keep[a] = true
	}
	var want []Gadget
	for _, g := range Scan(img, 0) {
		if keep[g.Addr] {
			want = append(want, g)
		}
	}
	got := ScanAddrs(img, addrs, 0)
	if !sameGadgets(got, want) {
		t.Errorf("%s: ScanAddrs found %d gadgets, filtered Scan %d (or they differ)", label, len(got), len(want))
	}
	return len(want)
}

func sameGadgets(a, b []Gadget) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
