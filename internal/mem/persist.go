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
//     current durable content is captured as a shadow.
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
// store can be lost whole but never torn internally.
const (
	LineSize = 64
	WordSize = 8
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

// lineKey names one NVM cache line.
type lineKey struct {
	frame uint32
	line  uint16 // line index within the frame: off / LineSize
}

// wbLine is one dirty line in the write buffer. shadow holds the durable
// content from before the line was first dirtied; flushed means a clwb has
// been issued but no fence has drained it yet (its key is then also in
// Memory.wbFlushed).
type wbLine struct {
	shadow  [LineSize]byte
	flushed bool
}

// Mode returns the configured persistence model.
func (m *Memory) Mode() PersistMode { return m.mode }

// UnflushedLines reports how many NVM lines are currently at risk (dirty
// in the write buffer, fenced ones excluded). Always 0 under eADR.
func (m *Memory) UnflushedLines() int { return len(m.wb) }

// track records that bytes [off, off+n) of page p are being overwritten,
// capturing pre-write shadows for newly dirtied lines. Must be called
// BEFORE the store mutates the frame. No-op for DRAM and under eADR.
func (m *Memory) track(p PageID, off, n int) {
	if m.mode != ModeADR || p.Kind != KindNVM || n <= 0 {
		return
	}
	d := m.nvm.data(p.Frame)
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		k := lineKey{frame: p.Frame, line: uint16(l)}
		if wl, ok := m.wb[k]; ok {
			// Re-dirtying a flushed-but-unfenced line makes it
			// volatile again; the shadow (last durable content)
			// is unchanged because nothing was fenced since.
			wl.flushed = false
			continue
		}
		wl := &wbLine{}
		copy(wl.shadow[:], d[l*LineSize:(l+1)*LineSize])
		m.wb[k] = wl
	}
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
	lines := simclock.Duration(0)
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		k := lineKey{frame: p.Frame, line: uint16(l)}
		if wl, ok := m.wb[k]; ok && !wl.flushed {
			wl.flushed = true
			m.wbFlushed = append(m.wbFlushed, k)
			lines++
		}
	}
	m.Stats.Flushes++
	m.crashEvent()
	if lines == 0 {
		// clwb of clean lines still executes (and is common: callers
		// flush conservatively); charge one line's issue cost.
		lines = 1
	}
	return lines * m.model.CLWBLine
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
	// Only lines flushed since the last fence can drain. A key may be
	// stale — the line was dirtied again, or appears twice and was
	// already drained — so the buffer entry is re-checked.
	for _, k := range m.wbFlushed {
		if wl, ok := m.wb[k]; ok && wl.flushed {
			delete(m.wb, k)
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
// participates in the persistence model.
func (m *Memory) ZeroPage(p PageID) {
	m.preWrite(p, 0, PageSize)
	m.track(p, 0, PageSize)
	clear(m.write(p))
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
	for l := off / LineSize; l <= (off+len(data)-1)/LineSize; l++ {
		wl, ok := m.wb[lineKey{frame: p.Frame, line: uint16(l)}]
		if !ok {
			continue
		}
		lo := l * LineSize
		hi := lo + LineSize
		s, e := max(off, lo), min(off+len(data), hi)
		copy(wl.shadow[s-lo:e-lo], d[s:e])
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
	for k, wl := range m.wb {
		m.Stats.CrashLinesAtRisk++
		h := splitmix64(m.crashSeed ^ splitmix64(uint64(m.crashes)<<48|uint64(k.frame)<<16|uint64(k.line)))
		if h%100 < 25 {
			continue // the line happened to be written back in time
		}
		line := m.nvm.write(k.frame)[int(k.line)*LineSize : (int(k.line)+1)*LineSize]
		if h%100 < 70 {
			// Dropped: the cache line never reached the DIMM.
			copy(line, wl.shadow[:])
			m.Stats.CrashLinesDropped++
		} else {
			// Torn: each aligned 8-byte word independently made it
			// or reverted (word stores are atomic on the bus).
			w := splitmix64(h)
			for i := 0; i < LineSize/WordSize; i++ {
				if w>>(uint(i))&1 == 0 {
					copy(line[i*WordSize:(i+1)*WordSize], wl.shadow[i*WordSize:(i+1)*WordSize])
				}
			}
			m.Stats.CrashLinesTorn++
		}
	}
	clear(m.wb)
	m.wbFlushed = m.wbFlushed[:0]
	m.crashes++
}
