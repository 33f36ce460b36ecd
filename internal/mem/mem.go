// Package mem simulates the physical memory of the TreeSLS machine: a
// non-volatile memory (NVM) device whose contents survive power failures and
// a DRAM device that is wiped by them.
//
// The paper's machine has 256 GiB DRAM and 1 TiB Optane PM; here both devices
// are arrays of 4 KiB frames backed by demand-zero storage: a frame that has
// been touched but never stored to reads from one shared, never-written zero
// frame, and it gets bytes of its own at its first store. Zeroing a frame
// clears its own bytes in place and leaves a frame without any on the zero
// frame. The only properties the TreeSLS algorithms rely on are captured
// exactly:
//
//   - NVM frames keep their bytes across Crash().
//   - DRAM frames are zeroed by Crash().
//   - NVM accesses are slower than DRAM accesses (per the cost model).
//
// Frame allocation policy is split: NVM frames are owned by the buddy system
// in internal/alloc (whose metadata is itself crash-consistent); DRAM frames
// are owned by a simple watermark and free list here, because DRAM state is
// rebuilt from scratch after a failure and needs no crash consistency.
package mem

import (
	"fmt"
	"hash/crc32"

	"treesls/internal/simclock"
)

// PageSize is the size of one physical frame in bytes.
const PageSize = 4096

// Kind identifies which device a page lives on.
type Kind uint8

const (
	// KindNil marks the zero PageID (no page).
	KindNil Kind = iota
	// KindNVM is persistent memory: contents survive Crash().
	KindNVM
	// KindDRAM is volatile memory: contents are zeroed by Crash().
	KindDRAM
)

// String returns "nil", "NVM" or "DRAM".
func (k Kind) String() string {
	switch k {
	case KindNVM:
		return "NVM"
	case KindDRAM:
		return "DRAM"
	default:
		return "nil"
	}
}

// PageID names one physical frame. The zero value is the nil page.
type PageID struct {
	Kind  Kind
	Frame uint32
}

// NilPage is the absent page.
var NilPage = PageID{}

// IsNil reports whether p names no page.
func (p PageID) IsNil() bool { return p.Kind == KindNil }

// String formats a PageID for diagnostics, e.g. "NVM:42".
func (p PageID) String() string {
	if p.IsNil() {
		return "nil-page"
	}
	return fmt.Sprintf("%s:%d", p.Kind, p.Frame)
}

// chunkFrames is how many frames one lazily made frame-table chunk covers.
const chunkFrames = 256

// zeroFrame backs every frame, on every Memory, that has been touched but
// never stored to. Nothing writes it: Device.write gives a frame bytes of
// its own before its first store, so concurrent machines only ever read it.
var zeroFrame [PageSize]byte

// onZeroFrame reports whether frame bytes b are the shared zero frame.
func onZeroFrame(b []byte) bool { return &b[0] == &zeroFrame[0] }

// OwnFrame reports whether b, frame bytes that Data returned, are the
// frame's own bytes rather than the shared zero frame. Own bytes never move
// (see frameChunk), so a caller may keep them and read the page through
// ReadFrame later; the zero frame it must not keep, because the page's
// first store, by whatever path, moves the page off it.
func OwnFrame(b []byte) bool { return !onZeroFrame(b) }

// frameChunk holds chunkFrames consecutive frames: each frame's backing
// bytes (nil until the frame is first touched, zeroFrame until its first
// store) and its host-only change-tracking metadata. The two live in
// separate arrays so that a read touches only the slice headers, as it
// would without the metadata.
//
// The frame invariant: once a store has given a frame bytes of its own,
// those bytes stay the frame's bytes, at the same address, for the life of
// the Memory. Only two places assign b[i]: Device.slot (nil to the zero
// frame, at first touch) and Device.write (the zero frame to own bytes, at
// the first store). Zeroing, Crash's DRAM wipe and ADR or media damage
// change own bytes in place, and a chunk, once made, is never replaced.
// The vm package's software TLB caches own bytes on this promise; a change
// that replaces a frame's bytes (say, chunks copied on write for a
// forkable machine) must invalidate such caches. TestOwnFrameNeverMoves
// pins the invariant.
type frameChunk struct {
	b    [chunkFrames][]byte
	meta [chunkFrames]frameMeta
}

// frameMeta is one frame's change-tracking metadata. gen is the frame's
// write generation: every path that changes the frame's bytes bumps it, and
// it never resets for the lifetime of the Memory. hash caches PageHash of
// the bytes as of generation hashed-1 (hashed == 0: never computed).
type frameMeta struct {
	gen    uint64
	hash   uint64
	hashed uint64
}

// Device is one physical memory device: a fixed number of frames with
// demand-zero backing bytes. The frame table is itself lazy: a
// directory of chunks, each made when one of its frames is first touched,
// so a machine that touches few frames never pays for a full table.
type Device struct {
	kind    Kind
	nFrames int
	chunks  []*frameChunk
}

func newDevice(kind Kind, nFrames int) *Device {
	return &Device{kind: kind, nFrames: nFrames, chunks: make([]*frameChunk, (nFrames+chunkFrames-1)/chunkFrames)}
}

// NumFrames returns the device capacity in frames.
func (d *Device) NumFrames() int { return d.nFrames }

// slot returns the chunk holding frame f and f's index in it, marking the
// frame touched: an untouched frame is pointed at the zero frame.
func (d *Device) slot(f uint32) (*frameChunk, uint32) {
	if int(f) >= d.nFrames {
		panic(fmt.Sprintf("mem: frame %d out of range on %s device (%d frames)", f, d.kind, d.nFrames))
	}
	c := d.chunks[f/chunkFrames]
	if c == nil {
		c = new(frameChunk)
		d.chunks[f/chunkFrames] = c
	}
	i := f % chunkFrames
	if c.b[i] == nil {
		c.b[i] = zeroFrame[:]
	}
	return c, i
}

// data returns the backing bytes of frame f for reading: the zero frame
// when nothing has stored to f.
func (d *Device) data(f uint32) []byte {
	c, i := d.slot(f)
	return c.b[i]
}

// write returns the backing bytes of frame f for a store and bumps the
// frame's write generation, giving a frame on the zero frame bytes of its
// own. Every path that changes a frame's bytes goes through write or zero.
func (d *Device) write(f uint32) []byte {
	c, i := d.slot(f)
	c.meta[i].gen++
	if onZeroFrame(c.b[i]) {
		c.b[i] = make([]byte, PageSize)
	}
	return c.b[i]
}

// zero clears frame f and bumps its write generation. A frame with bytes of
// its own is cleared in place, so its next store allocates nothing; a frame
// on the zero frame stays there.
func (d *Device) zero(f uint32) {
	c, i := d.slot(f)
	c.meta[i].gen++
	if b := c.b[i]; !onZeroFrame(b) {
		clear(b)
	}
}

// forEachFrame calls fn for every touched frame at or above from, in
// ascending frame order (crash-time damage depends on that order).
func (d *Device) forEachFrame(from uint32, fn func(f uint32, b []byte)) {
	for ci := int(from / chunkFrames); ci < len(d.chunks); ci++ {
		c := d.chunks[ci]
		if c == nil {
			continue
		}
		for i, b := range c.b {
			if f := uint32(ci*chunkFrames + i); b != nil && f >= from {
				fn(f, b)
			}
		}
	}
}

// Memory bundles the two devices and the cost model. All page data access in
// the simulator goes through Memory so that device costs are charged
// uniformly.
type Memory struct {
	model *simclock.CostModel
	nvm   *Device
	dram  *Device

	// DRAM frame ownership: dramNext is the lowest frame never handed out
	// since the last reset, and dramFree holds the frames freed since
	// then, reused LIFO before the watermark advances. Together they hand
	// out the same frames as one LIFO stack pre-filled with every frame,
	// lowest on top, without building it.
	dramFree []uint32
	dramNext uint32

	// Relaxed-persistency state (see persist.go). wb is the write buffer
	// of unfenced NVM stores, one entry per frame with a dirty line; it
	// stays empty under eADR. wbLines counts the dirty lines, wbFlushed
	// lists each entry holding a line flushed since the last fence once,
	// so Fence visits only those, and wbSpare keeps drained entries for
	// reuse.
	mode      PersistMode
	crashSeed uint64
	crashes   uint64 // power failures so far (varies damage across crashes)
	wb        map[uint32]*wbFrame
	wbLines   int
	wbFlushed []*wbFrame
	wbSpare   []*wbFrame

	// Event-granular crash injection.
	events         uint64
	crashArmed     bool
	crashCountdown uint64

	// Media-fault state (see media.go): poisoned (uncorrectable) NVM
	// lines as a line mask per frame (only nonzero masks are kept) and
	// their count, the injector config, and the metadata region exempt
	// from random crash-time injection.
	media        MediaFaultConfig
	mediaProtect uint32
	poison       map[uint32]uint64
	poisonLines  int

	// Stats counts device traffic for the experiment reports.
	Stats Stats
}

// Stats counts page-granularity device traffic plus the robustness
// counters of the relaxed-persistency model.
type Stats struct {
	NVMPageWrites  uint64
	NVMPageReads   uint64
	DRAMPageWrites uint64
	DRAMPageReads  uint64

	// ADR persistence-protocol traffic (always 0 under eADR).
	Flushes uint64
	Fences  uint64

	// Crash-damage accounting, cumulative across power failures: lines
	// still in the write buffer when power failed, and how many of
	// those were dropped whole or torn word-by-word.
	CrashLinesAtRisk  uint64
	CrashLinesDropped uint64
	CrashLinesTorn    uint64

	// Media-fault accounting (see media.go): lines poisoned (flagged
	// uncorrectable), lines silently rotted, machine-check reads of
	// poisoned spans, and poison flags cleared by full-line rewrites.
	PoisonedLines uint64
	RottedLines   uint64
	PoisonedReads uint64
	PoisonClears  uint64
}

// Config sizes the two devices and selects the persistence model.
type Config struct {
	NVMFrames  int
	DRAMFrames int

	// Persist selects eADR (default: every store durable on landing) or
	// ADR (only flushed+fenced lines survive Crash).
	Persist PersistMode
	// CrashSeed seeds the deterministic damage RNG used by Crash() in
	// ADR mode.
	CrashSeed uint64

	// Media configures the NVM media-fault injector (media.go). The zero
	// value injects nothing.
	Media MediaFaultConfig
}

// DefaultConfig returns a machine with 64 Ki NVM frames (256 MiB) and
// 16 Ki DRAM frames (64 MiB) — large enough for every experiment at the
// default scale while keeping test memory use modest.
func DefaultConfig() Config {
	return Config{NVMFrames: 64 * 1024, DRAMFrames: 16 * 1024}
}

// New creates the simulated physical memory.
func New(cfg Config, model *simclock.CostModel) *Memory {
	m := &Memory{
		model:     model,
		nvm:       newDevice(KindNVM, cfg.NVMFrames),
		dram:      newDevice(KindDRAM, cfg.DRAMFrames),
		mode:      cfg.Persist,
		crashSeed: cfg.CrashSeed,
		media:     cfg.Media,
	}
	if m.mode == ModeADR {
		m.wb = make(map[uint32]*wbFrame)
	}
	m.resetDRAMFreeList()
	return m
}

func (m *Memory) resetDRAMFreeList() {
	m.dramFree = m.dramFree[:0]
	m.dramNext = 0
}

// Model returns the machine cost model.
func (m *Memory) Model() *simclock.CostModel { return m.model }

// NVMFrames returns the NVM device capacity (the buddy allocator manages
// exactly this range).
func (m *Memory) NVMFrames() int { return m.nvm.NumFrames() }

// device returns the device page p lives on.
func (m *Memory) device(p PageID) *Device {
	switch p.Kind {
	case KindNVM:
		return m.nvm
	case KindDRAM:
		return m.dram
	default:
		panic("mem: access to nil page")
	}
}

// Data returns the live backing bytes of page p, for reading only: every
// store goes through WriteAt, WriteRaw, CopyPage, ZeroPage or
// PersistAtomic, which keep the frame's write generation (Gen) current. A
// page nothing has stored to returns the zero frame that every such page
// of every Memory shares, so a write through the slice would corrupt them
// all; its first store moves it onto bytes of its own, which a slice taken
// before that store does not see. Callers must charge access costs
// themselves (or use CopyPage / ReadAt / WriteAt which do).
func (m *Memory) Data(p PageID) []byte { return m.device(p).data(p.Frame) }

// write returns page p's bytes for a store, bumping its write generation.
func (m *Memory) write(p PageID) []byte { return m.device(p).write(p.Frame) }

// Gen returns page p's write generation: a counter that every change to the
// page's bytes increments and that never resets for the lifetime of m. Equal
// generations of one page mean equal bytes. It is host-only metadata for
// the simulator's own bookkeeping (audit digests, replication capture, the
// checkpoint manager's page checksums). A host-side shortcut may read it
// only where its answer equals the full computation over the page's bytes;
// no modeled decision may read it.
func (m *Memory) Gen(p PageID) uint64 {
	c, i := m.device(p).slot(p.Frame)
	return c.meta[i].gen
}

// castagnoli is the CRC-32C table; crc32.Checksum recognizes it and runs
// the CPU's CRC32 instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hashPage is PageHash of bytes b: their CRC-32C in the high half and their
// CRC-32 (IEEE) in the low half.
func hashPage(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// zeroPageHash is PageHash of a frame still on the shared zero frame, which
// nothing writes. Boot pre-faults many such frames (extsync ring pages)
// that the first digest then hashes.
var zeroPageHash = hashPage(zeroFrame[:])

// PageHash returns a 64-bit hash of page p's bytes: their CRC-32C in the
// high half and their CRC-32 (IEEE) in the low half. Both run in hardware
// in hash/crc32, at about 0.2 µs per 4 KiB page where byte-serial FNV-1a
// takes about 7 µs on random content. The hash is cached per frame and
// recomputed only after the frame was written, so hashing an unchanged
// page costs a lookup. It is always computed from the bytes, never taken
// from another layer's checksums. Like Gen it is host-only metadata and
// charges nothing.
func (m *Memory) PageHash(p PageID) uint64 {
	c, i := m.device(p).slot(p.Frame)
	fm := &c.meta[i]
	if fm.hashed != fm.gen+1 {
		if b := c.b[i]; onZeroFrame(b) {
			fm.hash = zeroPageHash
		} else {
			fm.hash = hashPage(b)
		}
		fm.hashed = fm.gen + 1
	}
	return fm.hash
}

// AllocDRAM takes one DRAM frame: the most recently freed one, else the
// lowest never handed out. It returns the nil page when DRAM is exhausted
// (callers fall back to keeping the page on NVM).
func (m *Memory) AllocDRAM() PageID {
	var f uint32
	if n := len(m.dramFree); n > 0 {
		f = m.dramFree[n-1]
		m.dramFree = m.dramFree[:n-1]
	} else if int(m.dramNext) < m.dram.NumFrames() {
		f = m.dramNext
		m.dramNext++
	} else {
		return NilPage
	}
	// A freshly allocated frame must read as zero even if a previous
	// owner left data in it.
	m.dram.zero(f)
	return PageID{Kind: KindDRAM, Frame: f}
}

// FreeDRAM returns a DRAM frame to the free list.
func (m *Memory) FreeDRAM(p PageID) {
	if p.Kind != KindDRAM {
		panic("mem: FreeDRAM on " + p.String())
	}
	m.dramFree = append(m.dramFree, p.Frame)
}

// DRAMFreeFrames reports how many DRAM frames are currently free.
func (m *Memory) DRAMFreeFrames() int {
	return len(m.dramFree) + m.dram.NumFrames() - int(m.dramNext)
}

// CopyPage copies one full page from src to dst and returns the simulated
// cost (read of src + write of dst).
func (m *Memory) CopyPage(dst, src PageID) simclock.Duration {
	m.preWrite(dst, 0, PageSize)
	m.track(dst, 0, PageSize)
	copy(m.write(dst), m.Data(src))
	if dst.Kind == KindNVM {
		m.crashEvent()
	}
	return m.readCost(src) + m.writeCost(dst)
}

// WriteAt writes data into page p at offset off and returns the simulated
// cost. Partial-page writes are charged per touched cacheline.
func (m *Memory) WriteAt(p PageID, off int, data []byte) simclock.Duration {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: WriteAt out of page bounds: off=%d len=%d", off, len(data)))
	}
	m.preWrite(p, off, len(data))
	m.track(p, off, len(data))
	copy(m.write(p)[off:], data)
	if p.Kind == KindNVM {
		m.crashEvent()
	}
	return m.smallAccessCost(p, len(data), true)
}

// ReadAt reads len(buf) bytes from page p at offset off and returns the
// simulated cost.
func (m *Memory) ReadAt(p PageID, off int, buf []byte) simclock.Duration {
	return m.ReadFrame(p, m.Data(p), off, buf)
}

// ReadFrame reads len(buf) bytes at offset off of d, which must be page
// p's bytes as Data(p) returns them, and returns the simulated cost, the
// same as ReadAt's: ReadAt is ReadFrame applied to Data(p). A caller that
// kept a page's own bytes (see OwnFrame) reads them here without resolving
// p again.
func (m *Memory) ReadFrame(p PageID, d []byte, off int, buf []byte) simclock.Duration {
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("mem: ReadAt out of page bounds: off=%d len=%d", off, len(buf)))
	}
	copy(buf, d[off:])
	return m.smallAccessCost(p, len(buf), false)
}

func (m *Memory) readCost(p PageID) simclock.Duration {
	switch p.Kind {
	case KindNVM:
		m.Stats.NVMPageReads++
		return m.model.NVMReadPage
	default:
		m.Stats.DRAMPageReads++
		return m.model.DRAMCopyPage / 2
	}
}

func (m *Memory) writeCost(p PageID) simclock.Duration {
	switch p.Kind {
	case KindNVM:
		m.Stats.NVMPageWrites++
		return m.model.NVMWritePage
	default:
		m.Stats.DRAMPageWrites++
		return m.model.DRAMCopyPage / 2
	}
}

func (m *Memory) smallAccessCost(p PageID, n int, write bool) simclock.Duration {
	lines := simclock.Duration((n + 63) / 64)
	if lines == 0 {
		lines = 1
	}
	var per simclock.Duration
	if p.Kind == KindNVM {
		per = m.model.NVMAccess
		if write {
			m.Stats.NVMPageWrites++
		} else {
			m.Stats.NVMPageReads++
		}
	} else {
		per = m.model.DRAMAccess
		if write {
			m.Stats.DRAMPageWrites++
		} else {
			m.Stats.DRAMPageReads++
		}
	}
	return lines * per
}

// Crash simulates a power failure at the device level: every DRAM frame is
// zeroed and the DRAM free list is reset (DRAM ownership state is volatile
// kernel state and is rebuilt during restore). Under eADR NVM frames are
// untouched; under ADR every line still in the write buffer is dropped or
// torn per the seeded damage RNG (see persist.go).
func (m *Memory) Crash() {
	m.DisarmCrash()
	if m.mode == ModeADR {
		m.applyCrashDamage()
	} else {
		m.crashes++ // vary media damage across crashes under eADR too
	}
	m.injectCrashFaults()
	m.dram.forEachFrame(0, func(f uint32, _ []byte) { m.dram.zero(f) })
	m.resetDRAMFreeList()
}
