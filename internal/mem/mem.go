// Package mem defines the basic units of the simulated memory system —
// cache lines, XPLines (the 3D XPoint internal 256 B access granularity),
// pages — and a sparse byte store used to hold the actual contents of
// simulated DIMMs.
package mem

// Fundamental granularities of the platform (Section 2.1 of the paper).
const (
	CacheLine = 64   // CPU cache line and DDR-T transfer unit
	XPLine    = 256  // 3D XPoint media access granularity
	Page      = 4096 // OS page and interleaving granularity
)

// LineAddr returns the cache-line-aligned base of addr.
func LineAddr(addr int64) int64 { return addr &^ (CacheLine - 1) }

// XPLineAddr returns the XPLine-aligned base of addr.
func XPLineAddr(addr int64) int64 { return addr &^ (XPLine - 1) }

// PageAddr returns the page-aligned base of addr.
func PageAddr(addr int64) int64 { return addr &^ (Page - 1) }

// LinesIn returns how many cache lines the byte range [addr, addr+size)
// touches.
func LinesIn(addr int64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineAddr(addr)
	last := LineAddr(addr + int64(size) - 1)
	return int((last-first)/CacheLine) + 1
}

// XPLinesIn returns how many XPLines the byte range touches.
func XPLinesIn(addr int64, size int) int {
	if size <= 0 {
		return 0
	}
	first := XPLineAddr(addr)
	last := XPLineAddr(addr + int64(size) - 1)
	return int((last-first)/XPLine) + 1
}

// DataStore is a sparse byte store over a 64-bit address space, allocating
// 4 KB pages on demand. It holds the durable contents of simulated memory.
// The zero value is ready to use.
//
// The last page found is memoized in front of the page map: accesses run
// in lines and pages, so most find their page there. Pages are never
// removed, so the memo cannot go stale.
type DataStore struct {
	pages    map[int64]*[Page]byte
	last     *[Page]byte // the page at lastBase, or nil
	lastBase int64
}

func (d *DataStore) page(addr int64, alloc bool) *[Page]byte {
	base := PageAddr(addr)
	if d.last != nil && base == d.lastBase {
		return d.last
	}
	p := d.pages[base]
	if p == nil {
		if !alloc {
			return nil
		}
		if d.pages == nil {
			d.pages = make(map[int64]*[Page]byte)
		}
		p = new([Page]byte)
		d.pages[base] = p
	}
	d.last, d.lastBase = p, base
	return p
}

// Write copies data into the store at addr.
func (d *DataStore) Write(addr int64, data []byte) {
	for len(data) > 0 {
		p := d.page(addr, true)
		off := int(addr - PageAddr(addr))
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// Read copies len(buf) bytes at addr into buf. Unwritten bytes read as zero.
func (d *DataStore) Read(addr int64, buf []byte) {
	for len(buf) > 0 {
		off := int(addr - PageAddr(addr))
		n := Page - off
		if n > len(buf) {
			n = len(buf)
		}
		if p := d.page(addr, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += int64(n)
	}
}

// Zero clears size bytes at addr.
func (d *DataStore) Zero(addr int64, size int) {
	var zeros [Page]byte
	for size > 0 {
		n := Page
		if n > size {
			n = size
		}
		d.Write(addr, zeros[:n])
		addr += int64(n)
		size -= n
	}
}

// Pages returns the number of resident pages (for tests and memory
// accounting).
func (d *DataStore) Pages() int { return len(d.pages) }
