// Package novafs is a log-structured persistent-memory file system in the
// style of NOVA (FAST '16), including the paper's two optimizations:
//
//   - NOVA-datalog (Section 5.1.2): sub-page writes embed their data in the
//     inode log instead of copy-on-writing a whole 4 KB page, turning small
//     random writes into sequential log appends.
//   - Multi-DIMM awareness (Section 5.3.1): the file system can mount over
//     several non-interleaved namespaces ("zones") and pin each file's
//     allocations to one zone, keeping writer threads from spreading across
//     DIMMs.
//
// Data consistency: every write is committed by appending a log entry and
// atomically advancing the inode's persisted log tail; copy-on-write data
// pages and embedded data are persisted before the tail moves.
package novafs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"optanestudy/internal/mem"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
	"optanestudy/internal/vfs"
)

// Mode selects the write path.
type Mode int

// Write-path modes.
const (
	// COW always copy-on-writes full 4 KB pages (original NOVA).
	COW Mode = iota
	// Datalog embeds sub-page writes into the log (NOVA-datalog).
	Datalog
)

func (m Mode) String() string {
	if m == COW {
		return "NOVA"
	}
	return "NOVA-datalog"
}

// Options configures a mount.
type Options struct {
	Mode Mode
	// EmbedLimit is the largest write embedded in the log (Datalog mode).
	EmbedLimit int
	// SyscallCost is the kernel entry/VFS overhead per operation.
	SyscallCost sim.Time
}

// DefaultOptions returns the calibrated defaults.
func DefaultOptions(mode Mode) Options {
	return Options{
		Mode:        mode,
		EmbedLimit:  1024,
		SyscallCost: 500 * sim.Nanosecond,
	}
}

// Log entry types.
const (
	entryWrite = 1 // COW page install
	entryEmbed = 2 // inline data
)

// Every log entry header is one cache line.
const entrySize = 64

// zone is one namespace with its own page allocator.
type zone struct {
	ns       *platform.Namespace
	reg      pmem.Region
	nextPage int64 // bump frontier, in page units
	pages    int64
}

// FS is a mounted novafs. Log entries and data pages stream through the
// non-temporal persister (log-structured appends of fresh bytes); the
// small log-page headers and chain pointers persist with store+clwb.
type FS struct {
	opt   Options
	zones []*zone
	files map[string]*File
	nt    *pmem.Persister
	meta  *pmem.Persister
}

// Mount formats a novafs over one or more namespaces. Passing several
// non-interleaved namespaces enables multi-DIMM-aware allocation.
func Mount(namespaces []*platform.Namespace, opt Options) (*FS, error) {
	if len(namespaces) == 0 {
		return nil, errors.New("novafs: need at least one namespace")
	}
	if opt.EmbedLimit == 0 {
		opt.EmbedLimit = 1024
	}
	fs := &FS{
		opt:   opt,
		files: make(map[string]*File),
		nt:    pmem.NewPersister(pmem.NTStream),
		meta:  pmem.NewPersister(pmem.StoreFlush),
	}
	for _, ns := range namespaces {
		if ns.Size < 1<<20 {
			return nil, errors.New("novafs: namespace too small")
		}
		fs.zones = append(fs.zones, &zone{
			ns:       ns,
			reg:      pmem.Whole(ns),
			nextPage: 1, // page 0 is the superblock
			pages:    ns.Size / mem.Page,
		})
	}
	return fs, nil
}

// Name implements vfs.FS.
func (fs *FS) Name() string { return fs.opt.Mode.String() }

func (z *zone) allocPage() (int64, error) {
	if z.nextPage >= z.pages {
		return 0, errors.New("novafs: zone out of pages")
	}
	p := z.nextPage
	z.nextPage++
	return p * mem.Page, nil
}

// File is an open novafs file. Its volatile index (extent map and embed
// patch lists) mirrors the persistent log.
type File struct {
	fs   *FS
	zone *zone

	logHead int64 // offset of the first log page
	logPage int64 // current log page
	logOff  int64 // append offset within the current page
	size    int64

	// extents maps page-aligned file offsets to data page offsets.
	extents map[int64]int64
	// patches lists embedded writes overlaying each file page, newest
	// last.
	patches map[int64][]patch
}

type patch struct {
	off  int64 // offset within the file page
	n    int
	data int64 // namespace offset of the inline data
}

// CreateZone makes a file whose pages all come from the given zone
// (multi-DIMM pinning). Zone -1 picks by name hash.
func (fs *FS) CreateZone(ctx *platform.MemCtx, name string, zoneIdx int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("novafs: %q exists", name)
	}
	if zoneIdx < 0 {
		zoneIdx = int(hashName(name) % uint64(len(fs.zones)))
	}
	if zoneIdx >= len(fs.zones) {
		return nil, fmt.Errorf("novafs: zone %d out of range", zoneIdx)
	}
	z := fs.zones[zoneIdx]
	logPage, err := z.allocPage()
	if err != nil {
		return nil, err
	}
	f := &File{
		fs: fs, zone: z,
		logHead: logPage, logPage: logPage, logOff: 8,
		extents: make(map[int64]int64),
		patches: make(map[int64][]patch),
	}
	// Zero the log page header (next pointer) durably.
	var hdr [8]byte
	fs.meta.Persist(ctx, z.reg, logPage, len(hdr), hdr[:])
	fs.files[name] = f
	return f, nil
}

// Create implements vfs.FS (zone picked by name hash).
func (fs *FS) Create(ctx *platform.MemCtx, name string) (vfs.File, error) {
	return fs.CreateZone(ctx, name, -1)
}

// Open implements vfs.FS.
func (fs *FS) Open(_ *platform.MemCtx, name string) (vfs.File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("novafs: %q not found", name)
	}
	return f, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// appendEntry reserves room in the log (chaining a fresh page if needed),
// writes the entry plus inline payload with non-temporal stores, and
// returns the entry's offset. The caller commits by fencing; ordering with
// the tail update makes it atomic.
func (f *File) appendEntry(ctx *platform.MemCtx, entry []byte, inline []byte) (int64, error) {
	need := int64(len(entry) + len(inline))
	if f.logOff+need > mem.Page {
		next, err := f.zone.allocPage()
		if err != nil {
			return 0, err
		}
		var hdr [8]byte
		f.fs.meta.Persist(ctx, f.zone.reg, next, len(hdr), hdr[:])
		// Link from the full page and start appending after the header.
		var ptr [8]byte
		binary.LittleEndian.PutUint64(ptr[:], uint64(next))
		f.fs.meta.Persist(ctx, f.zone.reg, f.logPage, len(ptr), ptr[:])
		f.logPage = next
		f.logOff = 8
	}
	off := f.logPage + f.logOff
	f.fs.nt.Write(ctx, f.zone.reg, off, len(entry), entry)
	if len(inline) > 0 {
		f.fs.nt.Write(ctx, f.zone.reg, off+int64(len(entry)), len(inline), inline)
	}
	f.fs.nt.Fence(ctx)
	f.logOff += need
	return off, nil
}

// WriteAt implements vfs.File.
func (f *File) WriteAt(ctx *platform.MemCtx, off int64, data []byte) error {
	ctx.Proc().Sleep(f.fs.opt.SyscallCost)
	if f.fs.opt.Mode == Datalog && len(data) <= f.fs.opt.EmbedLimit &&
		off/mem.Page == (off+int64(len(data))-1)/mem.Page {
		return f.writeEmbed(ctx, off, data)
	}
	return f.writeCOW(ctx, off, data)
}

// writeEmbed appends an embed entry carrying the data inline
// (Figure 11's mechanism).
func (f *File) writeEmbed(ctx *platform.MemCtx, off int64, data []byte) error {
	pgoff := mem.PageAddr(off)
	inline := make([]byte, (len(data)+entrySize-1)&^(entrySize-1))
	copy(inline, data)
	entry := make([]byte, entrySize)
	entry[0] = entryEmbed
	binary.LittleEndian.PutUint64(entry[8:], uint64(pgoff))
	binary.LittleEndian.PutUint32(entry[16:], uint32(off-pgoff))
	binary.LittleEndian.PutUint32(entry[20:], uint32(len(data)))
	entryOff, err := f.appendEntry(ctx, entry, inline)
	if err != nil {
		return err
	}
	f.patches[pgoff] = append(f.patches[pgoff], patch{
		off: off - pgoff, n: len(data), data: entryOff + entrySize,
	})
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	return nil
}

// writeCOW copies each touched page to a fresh page with the new data
// merged in, then logs the page installation.
func (f *File) writeCOW(ctx *platform.MemCtx, off int64, data []byte) error {
	for len(data) > 0 {
		pgoff := mem.PageAddr(off)
		lo := int(off - pgoff)
		n := mem.Page - lo
		if n > len(data) {
			n = len(data)
		}
		newPage, err := f.zone.allocPage()
		if err != nil {
			return err
		}
		page := make([]byte, mem.Page)
		f.readPage(ctx, pgoff, page)
		copy(page[lo:], data[:n])
		f.fs.nt.Write(ctx, f.zone.reg, newPage, mem.Page, page)
		entry := make([]byte, entrySize)
		entry[0] = entryWrite
		binary.LittleEndian.PutUint64(entry[8:], uint64(pgoff))
		binary.LittleEndian.PutUint64(entry[16:], uint64(newPage))
		if _, err := f.appendEntry(ctx, entry, nil); err != nil {
			return err
		}
		f.extents[pgoff] = newPage
		delete(f.patches, pgoff) // the install folds older patches in
		if end := off + int64(n); end > f.size {
			f.size = end
		}
		off += int64(n)
		data = data[n:]
	}
	return nil
}

// readPage materializes the current contents of one file page: the base
// extent plus any embedded patches, applied in log order.
func (f *File) readPage(ctx *platform.MemCtx, pgoff int64, buf []byte) {
	if base, ok := f.extents[pgoff]; ok {
		ctx.LoadStream(f.zone.ns, base, mem.Page)
		ctx.DrainLoads()
		ctx.Peek(f.zone.ns, base, buf)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	for _, p := range f.patches[pgoff] {
		ctx.Load(f.zone.ns, p.data, p.n)
		ctx.Peek(f.zone.ns, p.data, buf[p.off:p.off+int64(p.n)])
	}
}

// ReadAt implements vfs.File.
func (f *File) ReadAt(ctx *platform.MemCtx, off int64, buf []byte) error {
	ctx.Proc().Sleep(f.fs.opt.SyscallCost / 2)
	page := make([]byte, mem.Page)
	for i := 0; i < len(buf); {
		pgoff := mem.PageAddr(off + int64(i))
		lo := int(off + int64(i) - pgoff)
		n := mem.Page - lo
		if n > len(buf)-i {
			n = len(buf) - i
		}
		if len(f.patches[pgoff]) == 0 {
			// Fast path: read straight from the extent.
			if base, ok := f.extents[pgoff]; ok {
				ctx.Load(f.zone.ns, base+int64(lo), n)
				ctx.Peek(f.zone.ns, base+int64(lo), buf[i:i+n])
			} else {
				for j := i; j < i+n; j++ {
					buf[j] = 0
				}
			}
		} else {
			f.readPage(ctx, pgoff, page)
			copy(buf[i:i+n], page[lo:lo+n])
		}
		i += n
	}
	return nil
}

// Sync implements vfs.File. NOVA persists at write time, so fsync only
// fences.
func (f *File) Sync(ctx *platform.MemCtx) error {
	f.fs.nt.Fence(ctx)
	return nil
}

// Size implements vfs.File.
func (f *File) Size() int64 { return f.size }

// PatchCount reports outstanding embedded patches (test hook).
func (f *File) PatchCount() int {
	n := 0
	for _, ps := range f.patches {
		n += len(ps)
	}
	return n
}

// Recover rebuilds a file's volatile index from its durable log after a
// crash. Entries past the last fully-persisted one are ignored.
func (fs *FS) Recover(name string, zoneIdx int, logHead int64) (*File, error) {
	if zoneIdx < 0 || zoneIdx >= len(fs.zones) {
		return nil, errors.New("novafs: bad zone")
	}
	z := fs.zones[zoneIdx]
	f := &File{
		fs: fs, zone: z,
		logHead: logHead, logPage: logHead, logOff: 8,
		extents: make(map[int64]int64),
		patches: make(map[int64][]patch),
	}
	pageOff := logHead
	maxPage := logHead / mem.Page
	notePage := func(off int64) {
		if p := off / mem.Page; p > maxPage {
			maxPage = p
		}
	}
	for {
		var hdr [8]byte
		z.ns.ReadDurable(pageOff, hdr[:])
		next := int64(binary.LittleEndian.Uint64(hdr[:]))
		off := int64(8)
	entries:
		for off+entrySize <= mem.Page {
			var e [entrySize]byte
			z.ns.ReadDurable(pageOff+off, e[:])
			switch e[0] {
			case entryWrite:
				pgoff := int64(binary.LittleEndian.Uint64(e[8:]))
				dataPage := int64(binary.LittleEndian.Uint64(e[16:]))
				f.extents[pgoff] = dataPage
				delete(f.patches, pgoff)
				notePage(dataPage)
				if pgoff+mem.Page > f.size {
					f.size = pgoff + mem.Page
				}
				off += entrySize
			case entryEmbed:
				pgoff := int64(binary.LittleEndian.Uint64(e[8:]))
				at := int64(binary.LittleEndian.Uint32(e[16:]))
				n := int(binary.LittleEndian.Uint32(e[20:]))
				inline := (int64(n) + entrySize - 1) &^ (entrySize - 1)
				f.patches[pgoff] = append(f.patches[pgoff], patch{
					off: at, n: n, data: pageOff + off + entrySize,
				})
				if pgoff+at+int64(n) > f.size {
					f.size = pgoff + at + int64(n)
				}
				off += entrySize + inline
			default:
				break entries // end of valid entries in this page
			}
		}
		if next == 0 {
			f.logPage = pageOff
			f.logOff = off
			break
		}
		notePage(next)
		pageOff = next
	}
	// Keep the allocator clear of every page the log references.
	if maxPage+1 > z.nextPage {
		z.nextPage = maxPage + 1
	}
	fs.files[name] = f
	return f, nil
}
