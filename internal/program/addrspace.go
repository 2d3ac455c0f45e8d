package program

import "encoding/binary"

// pageBits selects a 4 KiB page, matching the TLB page size used by the
// cycle model.
const (
	pageBits = 12
	pageSize = 1 << pageBits
)

// AddressSpace is a sparse, paged, byte-addressable 32-bit memory. It is the
// single functional-memory implementation shared by the emulator and the
// cycle simulator (the cache hierarchy adds timing on top; the bytes live
// here).
//
// Pages materialize on first touch and read as zero before any write, like
// anonymous demand-zero pages. The zero value is ready to use.
type AddressSpace struct {
	pages map[uint32]*[pageSize]byte
	// last caches the most recently touched page: instruction fetch and
	// stack traffic are heavily page-local, and the map lookup dominates
	// emulation cost without it.
	lastIdx  uint32
	lastPage *[pageSize]byte
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint32]*[pageSize]byte)}
}

func (as *AddressSpace) page(addr uint32) *[pageSize]byte {
	idx := addr >> pageBits
	if as.lastPage != nil && as.lastIdx == idx {
		return as.lastPage
	}
	if as.pages == nil {
		as.pages = make(map[uint32]*[pageSize]byte)
	}
	p := as.pages[idx]
	if p == nil {
		p = new([pageSize]byte)
		as.pages[idx] = p
	}
	as.lastIdx, as.lastPage = idx, p
	return p
}

// Clone returns an independent copy of every materialized page. The copy's
// pages share one backing allocation.
func (as *AddressSpace) Clone() *AddressSpace {
	c := &AddressSpace{pages: make(map[uint32]*[pageSize]byte, len(as.pages))}
	slab := make([][pageSize]byte, len(as.pages))
	i := 0
	for idx, p := range as.pages {
		slab[i] = *p
		c.pages[idx] = &slab[i]
		i++
	}
	return c
}

// LoadImage copies every segment of img into the address space.
func (as *AddressSpace) LoadImage(img *Image) {
	for i := range img.Segments {
		as.WriteBytes(img.Segments[i].Addr, img.Segments[i].Data)
	}
}

// ByteAt returns the byte at addr.
func (as *AddressSpace) ByteAt(addr uint32) byte {
	return as.page(addr)[addr&(pageSize-1)]
}

// SetByte stores b at addr.
func (as *AddressSpace) SetByte(addr uint32, b byte) {
	as.page(addr)[addr&(pageSize-1)] = b
}

// ReadWord returns the little-endian 32-bit word at addr. Unaligned and
// page-straddling reads are legal, as on x86.
func (as *AddressSpace) ReadWord(addr uint32) uint32 {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		return binary.LittleEndian.Uint32(as.page(addr)[off:])
	}
	var b [4]byte
	as.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord stores the little-endian 32-bit word v at addr.
func (as *AddressSpace) WriteWord(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		binary.LittleEndian.PutUint32(as.page(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	as.WriteBytes(addr, b[:])
}

// ReadBytes fills dst with the bytes starting at addr.
func (as *AddressSpace) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := copy(dst, as.page(addr)[off:])
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & (pageSize - 1)
		n := copy(as.page(addr)[off:], src)
		src = src[n:]
		addr += uint32(n)
	}
}

// PageCount returns the number of materialized pages (test/diagnostic aid).
func (as *AddressSpace) PageCount() int { return len(as.pages) }
