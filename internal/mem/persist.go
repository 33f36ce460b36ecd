// Relaxed-persistency (ADR) support.
//
// The seed simulator modeled an eADR platform: every store to NVM was durable
// the instant it landed, so Crash() could never lose an in-flight write. Real
// ADR machines only guarantee that data which has been written back from the
// CPU caches (clwb) *and* drained past a store fence (sfence) survives power
// loss; everything else sits in volatile cache lines that the platform cannot
// save. This file adds that weaker model behind Config.Persist:
//
//   - Every store to an NVM frame is tracked at 64-byte cache-line
//     granularity in a write buffer. When a line is first dirtied, its
//     current durable content is captured as a shadow. The buffer keeps
//     one entry per frame, with one bit per line (a 4 KiB frame has
//     exactly 64 lines), so the bookkeeping costs per frame while every
//     decision stays per line.
//   - Flush marks lines as written back; Fence makes flushed lines durable
//     (drops them from the buffer). Both charge the simclock cost model.
//   - Crash() consults a seeded deterministic RNG for every line still in
//     the buffer: the line either fully persisted, is dropped (reverts to
//     its shadow), or is torn — each aligned 8-byte word independently
//     keeps the new value or reverts. 8-byte aligned stores are atomic on
//     the memory bus, so a single word can be lost but never shredded.
//   - PersistAtomic models the ntstore+sfence idiom used for publishing
//     pointers/flags: the store is durable immediately and updates the
//     shadows of any buffered lines it overlaps, so a later drop of the
//     line preserves the atomically-published word.
//
// In ModeEADR every primitive below is a free no-op (zero cost, no
// tracking), keeping the seed's experiment outputs bit-identical.
//
// The file also hosts the event-granular crash injector: every NVM
// persistence event (tracked write, flush, fence, or an explicit
// CrashPoint) bumps a counter, and ArmCrashAfter(n) makes the n-th future
// event panic with CrashError. The crash-fuzz harness sweeps that counter
// to explore every ordering window in the persistence protocol.
package mem

import (
	"fmt"
	"math/bits"

	"treesls/internal/simclock"
)

// PersistMode selects how NVM stores become durable.
type PersistMode uint8

const (
	// ModeEADR (the default): the platform flushes the whole cache
	// hierarchy on power failure, so every landed store is durable.
	ModeEADR PersistMode = iota
	// ModeADR: only flushed-and-fenced lines are durable; Crash() may
	// drop or tear anything still in the write buffer.
	ModeADR
)

// String names the mode for flags and reports.
func (pm PersistMode) String() string {
	if pm == ModeADR {
		return "adr"
	}
	return "eadr"
}

// ParsePersistMode parses "eadr" or "adr" (as accepted by CLI flags).
func ParsePersistMode(s string) (PersistMode, error) {
	switch s {
	case "eadr", "":
		return ModeEADR, nil
	case "adr":
		return ModeADR, nil
	default:
		return ModeEADR, fmt.Errorf("mem: unknown persist mode %q (want eadr or adr)", s)
	}
}

// LineSize is the persistence granularity of the write buffer (one CPU
// cache line). WordSize is the store atomicity unit: an aligned 8-byte
// store can be lost whole but never torn internally. linesPerFrame is the
// width of a frame's line masks: bit l stands for line l.
const (
	LineSize      = 64
	WordSize      = 8
	linesPerFrame = PageSize / LineSize
)

// Reserved NVM meta-frame layout. These frames sit inside the allocator's
// reserved metadata area (frames [0, alloc.ReservedMetaFrames)) and are
// never handed out by the buddy system.
const (
	// CommitMetaFrame holds the checkpoint manager's committed-version
	// word at offset 0 — the 8-byte atom whose persistence *is* the
	// checkpoint commit point.
	CommitMetaFrame = 0
	// JournalMetaFrame holds the redo/undo journal: an 8-byte pending
	// flag at offset 0 and the serialized in-flight record at offset 64
	// (its own cache line, so flag and body never share a tear domain).
	JournalMetaFrame = 1
	// CommitMirrorFrame holds the mirror of the commit record at offset
	// 0, on its own frame so that losing one whole frame never takes
	// both copies.
	CommitMirrorFrame = 2
)

// CrashError is the panic value raised when an armed crash countdown
// expires at an NVM persistence event. The kernel's crash-injection
// harness recovers it and turns it into a power failure.
type CrashError struct {
	// Event is the 1-based index of the persistence event at which the
	// simulated power failed.
	Event uint64
}

func (e CrashError) Error() string {
	return fmt.Sprintf("mem: injected power failure at persistence event %d", e.Event)
}

// wbFrame is one NVM frame's write-buffer entry, one bit per cache line.
// A line is buffered iff its dirty bit is set, and only then is its slice
// of shadow read: it holds the line's durable content from before the line
// was first dirtied. flushed marks the lines a clwb has written back that
// no fence has drained yet (flushed ⊆ dirty); listed means the entry is on
// Memory.wbFlushed. The entry is in Memory.wb iff dirty != 0.
type wbFrame struct {
	frame          uint32
	dirty, flushed uint64
	listed         bool
	shadow         [PageSize]byte
}

// lineMask returns the mask of lines [lo, hi) of one frame, clipped to the
// frame.
func lineMask(lo, hi int) uint64 {
	lo, hi = max(lo, 0), min(hi, linesPerFrame)
	if lo >= hi {
		return 0
	}
	return ^uint64(0) >> (linesPerFrame - (hi - lo)) << lo
}

// lineSpan returns the mask of the lines that bytes [off, off+n) overlap.
func lineSpan(off, n int) uint64 { return lineMask(off/LineSize, (off+n-1)/LineSize+1) }

// lowRun returns the lowest run of set bits in a nonzero mask as lines
// [lo, hi).
func lowRun(mask uint64) (lo, hi int) {
	lo = bits.TrailingZeros64(mask)
	return lo, lo + bits.TrailingZeros64(^(mask >> lo))
}

// Mode returns the configured persistence model.
func (m *Memory) Mode() PersistMode { return m.mode }

// UnflushedLines reports how many NVM lines are currently at risk (dirty
// in the write buffer, fenced ones excluded). Always 0 under eADR.
func (m *Memory) UnflushedLines() int { return m.wbLines }

// track records that bytes [off, off+n) of page p are being overwritten,
// capturing pre-write shadows for newly dirtied lines. Must be called
// BEFORE the store mutates the frame. No-op for DRAM and under eADR.
func (m *Memory) track(p PageID, off, n int) {
	if m.mode != ModeADR || p.Kind != KindNVM || n <= 0 {
		return
	}
	span := lineSpan(off, n)
	wf := m.wb[p.Frame]
	if wf == nil {
		wf = m.newWBFrame(p.Frame)
	}
	// Re-dirtying a flushed-but-unfenced line makes it volatile again;
	// the shadow (last durable content) is unchanged because nothing was
	// fenced since.
	wf.flushed &^= span
	fresh := span &^ wf.dirty
	if fresh == 0 {
		return
	}
	wf.dirty |= fresh
	m.wbLines += bits.OnesCount64(fresh)
	d := m.nvm.data(p.Frame)
	for fresh != 0 {
		lo, hi := lowRun(fresh)
		copy(wf.shadow[lo*LineSize:hi*LineSize], d[lo*LineSize:hi*LineSize])
		fresh &^= lineMask(lo, hi)
	}
}

// newWBFrame files an empty write-buffer entry for frame f, reusing one
// that a fence or crash drained.
func (m *Memory) newWBFrame(f uint32) *wbFrame {
	var wf *wbFrame
	if n := len(m.wbSpare); n > 0 {
		wf = m.wbSpare[n-1]
		m.wbSpare = m.wbSpare[:n-1]
	} else {
		wf = new(wbFrame)
	}
	wf.frame = f
	m.wb[f] = wf
	return wf
}

// retireWBFrame moves a drained entry (no dirty line) to the spare list.
func (m *Memory) retireWBFrame(wf *wbFrame) {
	wf.dirty, wf.flushed, wf.listed = 0, 0, false
	m.wbSpare = append(m.wbSpare, wf)
}

// crashEvent counts one NVM persistence event and fires the armed crash,
// if any. Call sites place it so the event's own effect has already been
// applied (store landed in cache, flush marked) except for Fence, which
// fires the event before durable-izing — a fence that never retires
// persists nothing.
func (m *Memory) crashEvent() {
	m.events++
	if !m.crashArmed {
		return
	}
	m.crashCountdown--
	if m.crashCountdown == 0 {
		m.crashArmed = false
		panic(CrashError{Event: m.events})
	}
}

// CrashPoint fires one persistence event without touching any data. The
// allocator's op-log append uses it to expose the window between a
// metadata mutation and its journal commit.
func (m *Memory) CrashPoint() { m.crashEvent() }

// ArmCrashAfter arms the injector: the n-th persistence event from now
// (n >= 1) panics with CrashError. Arming with n == 0 disarms.
func (m *Memory) ArmCrashAfter(n uint64) {
	m.crashArmed = n > 0
	m.crashCountdown = n
}

// DisarmCrash cancels a pending armed crash.
func (m *Memory) DisarmCrash() { m.crashArmed = false }

// Events returns the total number of persistence events so far (used by
// the fuzz harness to size its crash sweeps).
func (m *Memory) Events() uint64 { return m.events }

// Flush issues cache-line write-backs (clwb) for bytes [off, off+n) of
// page p and returns the simulated cost. Under eADR, for DRAM pages, and
// for the nil page it is a free no-op: flushing nothing is legal (callers
// flush whatever slot a checkpoint source happens to live in, which may
// be DRAM or absent).
func (m *Memory) Flush(p PageID, off, n int) simclock.Duration {
	if m.mode != ModeADR || p.Kind != KindNVM || n <= 0 {
		return 0
	}
	lines := 0
	if wf := m.wb[p.Frame]; wf != nil {
		if fl := lineSpan(off, n) & wf.dirty &^ wf.flushed; fl != 0 {
			wf.flushed |= fl
			lines = bits.OnesCount64(fl)
			if !wf.listed {
				wf.listed = true
				m.wbFlushed = append(m.wbFlushed, wf)
			}
		}
	}
	m.Stats.Flushes++
	m.crashEvent()
	if lines == 0 {
		// clwb of clean lines still executes (and is common: callers
		// flush conservatively); charge one line's issue cost.
		lines = 1
	}
	return simclock.Duration(lines) * m.model.CLWBLine
}

// FlushPage write-backs the whole page.
func (m *Memory) FlushPage(p PageID) simclock.Duration { return m.Flush(p, 0, PageSize) }

// Fence drains all flushed lines to durability (sfence) and returns the
// simulated cost. Free no-op under eADR.
func (m *Memory) Fence() simclock.Duration {
	if m.mode != ModeADR {
		return 0
	}
	m.Stats.Fences++
	// The crash event fires before the drain: a power failure at the
	// fence persists nothing that the fence was about to retire.
	m.crashEvent()
	// Only frames with a line flushed since the last fence can drain.
	for _, wf := range m.wbFlushed {
		m.wbLines -= bits.OnesCount64(wf.flushed)
		wf.dirty &^= wf.flushed
		wf.flushed, wf.listed = 0, false
		if wf.dirty == 0 {
			delete(m.wb, wf.frame)
			m.retireWBFrame(wf)
		}
	}
	m.wbFlushed = m.wbFlushed[:0]
	return m.model.SFence
}

// WriteRaw stores data into page p without charging access costs or
// bumping traffic stats — the persistence-protocol primitive used for
// journal records and metadata words, whose costs are charged explicitly
// (JournalRecord, CLWBLine, SFence). The store is tracked like any other
// under ADR and fires one persistence event for NVM pages.
func (m *Memory) WriteRaw(p PageID, off int, data []byte) {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: WriteRaw out of page bounds: off=%d len=%d", off, len(data)))
	}
	m.preWrite(p, off, len(data))
	m.track(p, off, len(data))
	copy(m.write(p)[off:], data)
	if p.Kind == KindNVM {
		m.crashEvent()
	}
}

// ReadRaw loads bytes without charging costs (recovery-path reads of
// metadata words; recovery time is charged at object granularity).
func (m *Memory) ReadRaw(p PageID, off int, buf []byte) {
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("mem: ReadRaw out of page bounds: off=%d len=%d", off, len(buf)))
	}
	copy(buf, m.Data(p)[off:])
}

// ZeroPage clears page p, tracking the stores under ADR. Replaces the
// bare clear(Data(p)) idiom so first-touch page materialization
// participates in the persistence model. A page nothing has stored to
// stays on the shared zero frame.
func (m *Memory) ZeroPage(p PageID) {
	m.preWrite(p, 0, PageSize)
	m.track(p, 0, PageSize)
	m.device(p).zero(p.Frame)
	if p.Kind == KindNVM {
		m.crashEvent()
	}
}

// PersistAtomic stores data and makes it durable in one indivisible step,
// modeling the ntstore+sfence publish idiom (and, for spans larger than
// one word, the simulation's stand-in for "metadata structs persist
// atomically": the Go-level mutation they mirror is inherently atomic in
// the simulator, so giving the mirror bytes a crash window would create
// inconsistencies no real execution could exhibit). It fires no crash
// event, updates the shadows of any buffered lines it overlaps, and
// returns the CLWB+SFence cost (zero under eADR).
func (m *Memory) PersistAtomic(p PageID, off int, data []byte) simclock.Duration {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: PersistAtomic out of page bounds: off=%d len=%d", off, len(data)))
	}
	m.preWrite(p, off, len(data))
	d := m.write(p)
	copy(d[off:], data)
	if m.mode != ModeADR || p.Kind != KindNVM {
		return 0
	}
	// The published bytes are durable: fold them into the shadows of any
	// lines still in the write buffer so a later drop keeps them.
	if wf := m.wb[p.Frame]; wf != nil {
		for hit := lineSpan(off, len(data)) & wf.dirty; hit != 0; {
			lo, hi := lowRun(hit)
			s, e := max(off, lo*LineSize), min(off+len(data), hi*LineSize)
			copy(wf.shadow[s:e], d[s:e])
			hit &^= lineMask(lo, hi)
		}
	}
	lines := simclock.Duration((len(data) + LineSize - 1) / LineSize)
	if lines == 0 {
		lines = 1
	}
	return lines*m.model.CLWBLine + m.model.SFence
}

// splitmix64 is the standard stateless mixer; the crash-damage RNG hashes
// (seed, crash ordinal, line identity) through it so damage is fully
// deterministic and independent of map iteration order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// applyCrashDamage resolves the write buffer at power failure: every
// still-buffered line either made it out of the cache in time, is dropped
// whole, or is torn word-by-word. Lines are disjoint, so application
// order cannot matter; the per-line hash keys on identity, not order.
func (m *Memory) applyCrashDamage() {
	for f, wf := range m.wb {
		for dirty := wf.dirty; dirty != 0; dirty &= dirty - 1 {
			l := bits.TrailingZeros64(dirty)
			m.Stats.CrashLinesAtRisk++
			h := splitmix64(m.crashSeed ^ splitmix64(m.crashes<<48|uint64(f)<<16|uint64(l)))
			if h%100 < 25 {
				continue // the line happened to be written back in time
			}
			line := m.nvm.write(f)[l*LineSize : (l+1)*LineSize]
			shadow := wf.shadow[l*LineSize : (l+1)*LineSize]
			if h%100 < 70 {
				// Dropped: the cache line never reached the DIMM.
				copy(line, shadow)
				m.Stats.CrashLinesDropped++
			} else {
				// Torn: each aligned 8-byte word independently made
				// it or reverted (word stores are atomic on the bus).
				w := splitmix64(h)
				for i := 0; i < LineSize/WordSize; i++ {
					if w>>(uint(i))&1 == 0 {
						copy(line[i*WordSize:(i+1)*WordSize], shadow[i*WordSize:(i+1)*WordSize])
					}
				}
				m.Stats.CrashLinesTorn++
			}
		}
		m.retireWBFrame(wf)
	}
	clear(m.wb)
	m.wbLines = 0
	m.wbFlushed = m.wbFlushed[:0]
	m.crashes++
}
