// NVM media-fault model.
//
// The relaxed-persistency model in persist.go captures what power loss does
// to *in-flight* stores; this file captures what time and physics do to data
// already on the DIMM. Real persistent memory suffers uncorrectable media
// errors: a cell wears out or a particle strike flips bits beyond what the
// on-DIMM ECC can repair. Hardware reports such a line as *poisoned* — a load
// from it raises a machine-check exception instead of returning stale bytes —
// and the poison is cleared only by writing the full line back.
//
// The simulator models two fault flavors at cache-line granularity:
//
//   - Poison: the line content is scrambled AND the line is flagged, so
//     CheckRead returns a MediaError. This is the detectable (ECC-caught)
//     fault class.
//   - Silent rot: the line content is scrambled but NOT flagged. The memory
//     device itself cannot detect it; only a software checksum can. This
//     class exists so the checkpoint layer's checksums can be proven
//     necessary — a no-checksum baseline must demonstrably restore garbage.
//
// Faults are injected two ways, both fully deterministic:
//
//   - At crash time: Config.Media.CrashFaults poisoned lines per power
//     failure, chosen by a seeded splitmix64 stream over the touched NVM
//     frames (frames below the protected metadata region are exempt —
//     modeling the common practice of interleaving critical metadata across
//     a higher-reliability region; targeted tests inject into them
//     explicitly).
//   - Explicitly: InjectPoison / InjectRot, used by tests and the crashfuzz
//     media campaign to hit precise protocol structures.
//
// A full-line overwrite clears poison (the write re-establishes ECC), so
// ordinary page copies naturally heal recycled frames. Partial writes into a
// poisoned line leave it poisoned.
package mem

import (
	"fmt"
	"math/bits"
)

// MediaError is the machine-check-style error returned by CheckRead when a
// read overlaps a poisoned line. It is an explicit, attributable failure —
// the opposite of silently returning rotten bytes.
type MediaError struct {
	Page PageID
	Off  int
	Len  int
}

func (e MediaError) Error() string {
	return fmt.Sprintf("mem: uncorrectable media error reading %s [%d,+%d)", e.Page, e.Off, e.Len)
}

// MediaFaultConfig configures the deterministic media-fault injector.
type MediaFaultConfig struct {
	// CrashFaults is how many poisoned NVM lines are injected at every
	// power failure. 0 disables crash-time injection (explicit Inject*
	// calls still work).
	CrashFaults int
	// Seed drives the choice of victim lines; the same seed and crash
	// sequence produce bit-identical damage.
	Seed uint64
}

// SetProtectedFrames exempts NVM frames [0, n) from *random* crash-time
// fault injection. The kernel sets this to the allocator's reserved
// metadata region, modeling metadata striped across a high-reliability
// interleave set. Explicit InjectPoison/InjectRot ignore it.
func (m *Memory) SetProtectedFrames(n int) { m.mediaProtect = uint32(n) }

// Poisoned reports whether any line overlapping bytes [off, off+n) of page
// p is poisoned. Always false for DRAM and the nil page.
func (m *Memory) Poisoned(p PageID, off, n int) bool {
	if p.Kind != KindNVM || len(m.poison) == 0 || n <= 0 {
		return false
	}
	return m.poison[p.Frame]&lineSpan(off, n) != 0
}

// CheckRead models a consuming load of bytes [off, off+n): if the span
// overlaps a poisoned line it returns a MediaError (and counts the
// machine-check), otherwise nil. It reads no data and charges no cost —
// callers pair it with the Data/ReadRaw access they were about to make.
func (m *Memory) CheckRead(p PageID, off, n int) error {
	if !m.Poisoned(p, off, n) {
		return nil
	}
	m.Stats.PoisonedReads++
	return MediaError{Page: p, Off: off, Len: n}
}

// ClearPoison removes the poison flag from every line overlapping
// [off, off+n). Callers must have rewritten the content first (repair
// paths rewrite a region from a mirror, then clear).
func (m *Memory) ClearPoison(p PageID, off, n int) {
	if p.Kind != KindNVM || len(m.poison) == 0 || n <= 0 {
		return
	}
	m.unpoison(p.Frame, lineSpan(off, n))
}

// unpoison clears the poison flags of the lines in mask on frame f,
// counting each flag it clears.
func (m *Memory) unpoison(f uint32, mask uint64) {
	was := m.poison[f]
	hit := was & mask
	if hit == 0 {
		return
	}
	n := bits.OnesCount64(hit)
	m.Stats.PoisonClears += uint64(n)
	m.poisonLines -= n
	if was == hit {
		delete(m.poison, f)
	} else {
		m.poison[f] = was &^ hit
	}
}

// PoisonedLineCount reports how many NVM lines are currently poisoned.
func (m *Memory) PoisonedLineCount() int { return m.poisonLines }

// InjectPoison makes every line overlapping [off, off+n) of NVM page p an
// uncorrectable media error: content scrambled, poison flag set. seed
// varies the scramble pattern deterministically.
func (m *Memory) InjectPoison(p PageID, off, n int, seed uint64) {
	if p.Kind != KindNVM || n <= 0 {
		return
	}
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		m.poisonLine(p.Frame, l, splitmix64(seed^uint64(l)))
	}
}

// InjectRot silently scrambles every line overlapping [off, off+n) of NVM
// page p — no poison flag, no machine check. Only a software checksum can
// tell. Each aligned word is XORed with a nonzero pattern, so the content
// is guaranteed to change.
func (m *Memory) InjectRot(p PageID, off, n int, seed uint64) {
	if p.Kind != KindNVM || n <= 0 {
		return
	}
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		m.scrambleLine(p.Frame, l, splitmix64(seed^uint64(l)))
		m.Stats.RottedLines++
	}
}

// poisonLine scrambles line l of frame f and flags it. Idempotent on the
// flag.
func (m *Memory) poisonLine(f uint32, l int, h uint64) {
	m.scrambleLine(f, l, h)
	if m.poison == nil {
		m.poison = make(map[uint32]uint64)
	}
	if was := m.poison[f]; was&(1<<l) == 0 {
		m.poison[f] = was | 1<<l
		m.poisonLines++
		m.Stats.PoisonedLines++
	}
}

// scrambleLine XORs each aligned 8-byte word of the line with a nonzero
// deterministic pattern. The damage hits the DIMM, so if the line has a
// write-buffer shadow (its last durable content) the shadow is scrambled
// identically — a later drop of the line must revert to the *damaged*
// durable bytes, not resurrect clean ones.
func (m *Memory) scrambleLine(f uint32, l int, h uint64) {
	line := m.nvm.write(f)[l*LineSize : (l+1)*LineSize]
	var sh []byte
	if wf := m.wb[f]; wf != nil && wf.dirty&(1<<l) != 0 {
		sh = wf.shadow[l*LineSize : (l+1)*LineSize]
	}
	for i := 0; i < LineSize/WordSize; i++ {
		pat := splitmix64(h+uint64(i)) | 1
		for b := 0; b < WordSize; b++ {
			line[i*WordSize+b] ^= byte(pat >> (8 * uint(b)))
			if sh != nil {
				sh[i*WordSize+b] ^= byte(pat >> (8 * uint(b)))
			}
		}
	}
}

// injectCrashFaults poisons Config.Media.CrashFaults lines at a power
// failure, chosen deterministically from the touched NVM frames (read,
// zeroed or written) outside the protected metadata region. Called by Crash() after ADR
// write-buffer damage has been resolved.
func (m *Memory) injectCrashFaults() {
	if m.media.CrashFaults <= 0 {
		return
	}
	var frames []uint32
	m.nvm.forEachFrame(m.mediaProtect, func(f uint32, _ []byte) { frames = append(frames, f) })
	if len(frames) == 0 {
		return
	}
	for i := 0; i < m.media.CrashFaults; i++ {
		h := splitmix64(m.media.Seed ^ splitmix64(uint64(m.crashes)<<24|uint64(i)+0x51ed2701))
		f := frames[h%uint64(len(frames))]
		m.poisonLine(f, int((h>>32)%linesPerFrame), splitmix64(h))
	}
}

// preWrite models the media-level effect of a store to [off, off+n): any
// poisoned line *fully covered* by the span has its poison cleared (the
// full-line write re-establishes ECC). Partially covered poisoned lines
// stay poisoned. Called by every store primitive before the bytes land.
func (m *Memory) preWrite(p PageID, off, n int) {
	if p.Kind != KindNVM || len(m.poison) == 0 || n <= 0 {
		return
	}
	// Only the lines the span covers whole: from the first line starting
	// at or after off to the last one ending at or before off+n.
	m.unpoison(p.Frame, lineMask((off+LineSize-1)/LineSize, (off+n)/LineSize))
}
