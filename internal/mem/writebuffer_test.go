package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"treesls/internal/simclock"
)

// lineKey names one NVM cache line of the reference model.
type lineKey struct {
	frame uint32
	line  uint16 // line index within the frame: off / LineSize
}

// wbLine is one dirty line in the reference write buffer. shadow holds the
// durable content from before the line was first dirtied; flushed means a
// clwb has been issued but no fence has drained it yet (its key is then
// also in refMemory.wbFlushed).
type wbLine struct {
	shadow  [LineSize]byte
	flushed bool
}

// refMemory is the per-line write buffer and poison set that Memory's
// per-frame line masks replaced, kept as a reference model. It owns its
// NVM frame bytes and write generations, files every dirty or poisoned
// line as its own map entry, and runs the per-line track, Flush, Fence,
// PersistAtomic, crash-damage and scrambleLine code with only the receiver
// changed. It models NVM pages only.
type refMemory struct {
	model        *simclock.CostModel
	frames       map[uint32]*[PageSize]byte
	gens         map[uint32]uint64
	crashSeed    uint64
	crashes      uint64
	media        MediaFaultConfig
	mediaProtect uint32
	wb           map[lineKey]*wbLine
	wbFlushed    []lineKey
	poison       map[lineKey]struct{}
	events       uint64
	Stats        Stats
}

func newRefMemory(cfg Config, frames int, protect uint32) *refMemory {
	r := &refMemory{
		model:        simclock.DefaultCostModel(),
		frames:       make(map[uint32]*[PageSize]byte),
		gens:         make(map[uint32]uint64),
		crashSeed:    cfg.CrashSeed,
		media:        cfg.Media,
		mediaProtect: protect,
		wb:           make(map[lineKey]*wbLine),
	}
	for f := 0; f < frames; f++ {
		r.frames[uint32(f)] = new([PageSize]byte)
	}
	return r
}

func (m *refMemory) data(f uint32) []byte { return m.frames[f][:] }

func (m *refMemory) write(f uint32) []byte {
	m.gens[f]++
	return m.frames[f][:]
}

func (m *refMemory) crashEvent() { m.events++ }

func (m *refMemory) track(p PageID, off, n int) {
	if n <= 0 {
		return
	}
	d := m.data(p.Frame)
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		k := lineKey{frame: p.Frame, line: uint16(l)}
		if wl, ok := m.wb[k]; ok {
			wl.flushed = false
			continue
		}
		wl := &wbLine{}
		copy(wl.shadow[:], d[l*LineSize:(l+1)*LineSize])
		m.wb[k] = wl
	}
}

func (m *refMemory) Flush(p PageID, off, n int) simclock.Duration {
	if n <= 0 {
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
		lines = 1
	}
	return lines * m.model.CLWBLine
}

func (m *refMemory) Fence() simclock.Duration {
	m.Stats.Fences++
	m.crashEvent()
	for _, k := range m.wbFlushed {
		if wl, ok := m.wb[k]; ok && wl.flushed {
			delete(m.wb, k)
		}
	}
	m.wbFlushed = m.wbFlushed[:0]
	return m.model.SFence
}

func (m *refMemory) WriteAt(p PageID, off int, data []byte) simclock.Duration {
	m.WriteRaw(p, off, data)
	m.Stats.NVMPageWrites++
	return simclock.Duration(max(1, (len(data)+63)/64)) * m.model.NVMAccess
}

func (m *refMemory) WriteRaw(p PageID, off int, data []byte) {
	m.preWrite(p, off, len(data))
	m.track(p, off, len(data))
	copy(m.write(p.Frame)[off:], data)
	m.crashEvent()
}

func (m *refMemory) ZeroPage(p PageID) {
	m.preWrite(p, 0, PageSize)
	m.track(p, 0, PageSize)
	clear(m.write(p.Frame))
	m.crashEvent()
}

func (m *refMemory) CopyPage(dst, src PageID) simclock.Duration {
	m.preWrite(dst, 0, PageSize)
	m.track(dst, 0, PageSize)
	copy(m.write(dst.Frame), m.data(src.Frame))
	m.crashEvent()
	m.Stats.NVMPageReads++
	m.Stats.NVMPageWrites++
	return m.model.NVMReadPage + m.model.NVMWritePage
}

func (m *refMemory) PersistAtomic(p PageID, off int, data []byte) simclock.Duration {
	m.preWrite(p, off, len(data))
	d := m.write(p.Frame)
	copy(d[off:], data)
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

func (m *refMemory) Crash() {
	for k, wl := range m.wb {
		m.Stats.CrashLinesAtRisk++
		h := splitmix64(m.crashSeed ^ splitmix64(uint64(m.crashes)<<48|uint64(k.frame)<<16|uint64(k.line)))
		if h%100 < 25 {
			continue
		}
		line := m.write(k.frame)[int(k.line)*LineSize : (int(k.line)+1)*LineSize]
		if h%100 < 70 {
			copy(line, wl.shadow[:])
			m.Stats.CrashLinesDropped++
		} else {
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
	m.injectCrashFaults()
}

func (m *refMemory) Poisoned(p PageID, off, n int) bool {
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		if _, ok := m.poison[lineKey{frame: p.Frame, line: uint16(l)}]; ok {
			return true
		}
	}
	return false
}

func (m *refMemory) ClearPoison(p PageID, off, n int) {
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		k := lineKey{frame: p.Frame, line: uint16(l)}
		if _, ok := m.poison[k]; ok {
			delete(m.poison, k)
			m.Stats.PoisonClears++
		}
	}
}

func (m *refMemory) InjectPoison(p PageID, off, n int, seed uint64) {
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		m.poisonLine(lineKey{frame: p.Frame, line: uint16(l)}, splitmix64(seed^uint64(l)))
	}
}

func (m *refMemory) InjectRot(p PageID, off, n int, seed uint64) {
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		m.scrambleLine(lineKey{frame: p.Frame, line: uint16(l)}, splitmix64(seed^uint64(l)))
		m.Stats.RottedLines++
	}
}

func (m *refMemory) poisonLine(k lineKey, h uint64) {
	m.scrambleLine(k, h)
	if m.poison == nil {
		m.poison = make(map[lineKey]struct{})
	}
	if _, ok := m.poison[k]; !ok {
		m.poison[k] = struct{}{}
		m.Stats.PoisonedLines++
	}
}

func (m *refMemory) scrambleLine(k lineKey, h uint64) {
	d := m.write(k.frame)
	line := d[int(k.line)*LineSize : (int(k.line)+1)*LineSize]
	var sh []byte
	if wl, ok := m.wb[k]; ok {
		sh = wl.shadow[:]
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

func (m *refMemory) injectCrashFaults() {
	if m.media.CrashFaults <= 0 {
		return
	}
	var frames []uint32
	for f := uint32(0); int(f) < len(m.frames); f++ {
		if f >= m.mediaProtect {
			frames = append(frames, f)
		}
	}
	for i := 0; i < m.media.CrashFaults; i++ {
		h := splitmix64(m.media.Seed ^ splitmix64(uint64(m.crashes)<<24|uint64(i)+0x51ed2701))
		f := frames[h%uint64(len(frames))]
		line := uint16((h >> 32) % (PageSize / LineSize))
		m.poisonLine(lineKey{frame: f, line: line}, splitmix64(h))
	}
}

func (m *refMemory) preWrite(p PageID, off, n int) {
	if n <= 0 {
		return
	}
	first := (off + LineSize - 1) / LineSize
	last := (off + n) / LineSize
	for l := first; l < last; l++ {
		k := lineKey{frame: p.Frame, line: uint16(l)}
		if _, ok := m.poison[k]; ok {
			delete(m.poison, k)
			m.Stats.PoisonClears++
		}
	}
}

// checkWriteBuffer compares m's per-frame write buffer and poison masks
// with the reference's per-line maps and checks the masks' invariants.
func checkWriteBuffer(m *Memory, ref *refMemory) error {
	lines := 0
	for f, wf := range m.wb {
		switch {
		case wf.frame != f:
			return fmt.Errorf("entry for frame %d names frame %d", f, wf.frame)
		case wf.dirty == 0:
			return fmt.Errorf("frame %d is buffered with no dirty line", f)
		case wf.flushed&^wf.dirty != 0:
			return fmt.Errorf("frame %d has flushed lines %#x outside its dirty lines %#x", f, wf.flushed, wf.dirty)
		case wf.flushed != 0 && !wf.listed:
			return fmt.Errorf("frame %d has flushed lines but is not on wbFlushed", f)
		}
		lines += bits.OnesCount64(wf.dirty)
		for dirty := wf.dirty; dirty != 0; dirty &= dirty - 1 {
			l := bits.TrailingZeros64(dirty)
			rl, ok := ref.wb[lineKey{frame: f, line: uint16(l)}]
			if !ok {
				return fmt.Errorf("line %d of frame %d is buffered, not in the reference", l, f)
			}
			if wf.flushed>>l&1 == 1 != rl.flushed {
				return fmt.Errorf("line %d of frame %d: flushed=%v, reference %v", l, f, wf.flushed>>l&1 == 1, rl.flushed)
			}
			if !bytes.Equal(wf.shadow[l*LineSize:(l+1)*LineSize], rl.shadow[:]) {
				return fmt.Errorf("line %d of frame %d: shadow differs from the reference", l, f)
			}
		}
	}
	if lines != len(ref.wb) || m.wbLines != lines || m.UnflushedLines() != lines {
		return fmt.Errorf("%d dirty lines in the masks, wbLines %d, UnflushedLines %d, reference %d",
			lines, m.wbLines, m.UnflushedLines(), len(ref.wb))
	}
	listed := make(map[uint32]bool)
	for _, wf := range m.wbFlushed {
		if listed[wf.frame] || !wf.listed || m.wb[wf.frame] != wf {
			return fmt.Errorf("wbFlushed entry for frame %d is repeated, unflagged or not buffered", wf.frame)
		}
		listed[wf.frame] = true
	}
	poisoned := 0
	for f, mask := range m.poison {
		if mask == 0 {
			return fmt.Errorf("frame %d keeps an empty poison mask", f)
		}
		poisoned += bits.OnesCount64(mask)
		for ; mask != 0; mask &= mask - 1 {
			l := bits.TrailingZeros64(mask)
			if _, ok := ref.poison[lineKey{frame: f, line: uint16(l)}]; !ok {
				return fmt.Errorf("line %d of frame %d is poisoned, not in the reference", l, f)
			}
		}
	}
	if poisoned != len(ref.poison) || m.PoisonedLineCount() != poisoned {
		return fmt.Errorf("%d poisoned lines in the masks, PoisonedLineCount %d, reference %d",
			poisoned, m.PoisonedLineCount(), len(ref.poison))
	}
	return nil
}

// TestWriteBufferMatchesPerLineReference drives random ADR sequences over
// every store, flush, fence, publish, media-fault and crash path through a
// Memory and the per-line reference model in lockstep, and requires equal
// costs, NVM bytes, write generations, Stats, unflushed and poisoned line
// counts, buffered lines with their flushed bits and shadows, and poisoned
// lines after every step. Spans run from one byte to a whole page.
func TestWriteBufferMatchesPerLineReference(t *testing.T) {
	const frames = 8
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{NVMFrames: 64, DRAMFrames: 1, Persist: ModeADR, CrashSeed: uint64(seed),
			Media: MediaFaultConfig{CrashFaults: 2, Seed: uint64(seed)}}
		got := New(cfg, simclock.DefaultCostModel())
		got.SetProtectedFrames(1)
		ref := newRefMemory(cfg, frames, 1)
		for f := uint32(0); f < frames; f++ {
			got.Data(PageID{Kind: KindNVM, Frame: f}) // same materialized frames as the reference
		}
		page := func() PageID { return PageID{Kind: KindNVM, Frame: uint32(rng.Intn(frames))} }
		// span draws [off, off+n) inside a page: mostly a few bytes or
		// lines near the start, so lines are re-dirtied, re-flushed and
		// fenced repeatedly, sometimes anything up to the whole page.
		span := func() (int, int) {
			var n int
			switch r := rng.Intn(10); {
			case r < 4:
				n = 1 + rng.Intn(WordSize)
			case r < 8:
				n = 1 + rng.Intn(3*LineSize)
			default:
				n = 1 + rng.Intn(PageSize)
			}
			off := rng.Intn(PageSize - n + 1)
			if n <= 3*LineSize && rng.Intn(2) == 0 {
				off = rng.Intn(min(8*LineSize, PageSize-n+1))
			}
			return off, n
		}
		bytesOf := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		for step := 0; step < 1500; step++ {
			var op string
			var cg, cr simclock.Duration
			switch r := rng.Intn(100); {
			case r < 18:
				op = "write-at"
				p := page()
				off, n := span()
				data := bytesOf(n)
				cg, cr = got.WriteAt(p, off, data), ref.WriteAt(p, off, data)
			case r < 24:
				op = "write-raw"
				p := page()
				off, n := span()
				data := bytesOf(n)
				got.WriteRaw(p, off, data)
				ref.WriteRaw(p, off, data)
			case r < 28:
				op = "copy-page"
				dst, src := page(), page()
				cg, cr = got.CopyPage(dst, src), ref.CopyPage(dst, src)
			case r < 30:
				op = "zero-page"
				p := page()
				got.ZeroPage(p)
				ref.ZeroPage(p)
			case r < 45:
				op = "flush"
				p := page()
				off, n := span()
				cg, cr = got.Flush(p, off, n), ref.Flush(p, off, n)
			case r < 49:
				op = "flush-page"
				p := page()
				cg, cr = got.FlushPage(p), ref.Flush(p, 0, PageSize)
			case r < 61:
				op = "fence"
				cg, cr = got.Fence(), ref.Fence()
			case r < 69:
				op = "persist-atomic"
				p := page()
				off, n := span()
				data := bytesOf(n)
				cg, cr = got.PersistAtomic(p, off, data), ref.PersistAtomic(p, off, data)
			case r < 84:
				// Re-dirty a line that is flushed but not yet fenced.
				op = "redirty"
				var flushed []lineKey
				for _, k := range ref.wbFlushed {
					if wl, ok := ref.wb[k]; ok && wl.flushed {
						flushed = append(flushed, k)
					}
				}
				if len(flushed) == 0 {
					continue
				}
				k := flushed[rng.Intn(len(flushed))]
				p := PageID{Kind: KindNVM, Frame: k.frame}
				off := int(k.line)*LineSize + rng.Intn(LineSize)
				data := bytesOf(1 + rng.Intn(min(2*LineSize, PageSize-off)))
				cg, cr = got.WriteAt(p, off, data), ref.WriteAt(p, off, data)
			case r < 88:
				op = "rot"
				p := page()
				off, n := rng.Intn(PageSize), 1+rng.Intn(2*LineSize)
				n = min(n, PageSize-off)
				s := rng.Uint64()
				got.InjectRot(p, off, n, s)
				ref.InjectRot(p, off, n, s)
			case r < 92:
				op = "poison"
				p := page()
				off, n := rng.Intn(PageSize), 1+rng.Intn(2*LineSize)
				n = min(n, PageSize-off)
				s := rng.Uint64()
				got.InjectPoison(p, off, n, s)
				ref.InjectPoison(p, off, n, s)
			case r < 95:
				op = "clear-poison"
				p := page()
				off, n := span()
				got.ClearPoison(p, off, n)
				ref.ClearPoison(p, off, n)
			case r < 98:
				op = "poisoned"
				p := page()
				off, n := span()
				if g, w := got.Poisoned(p, off, n), ref.Poisoned(p, off, n); g != w {
					t.Fatalf("seed %d step %d: Poisoned(%v, %d, %d) = %v, reference %v", seed, step, p, off, n, g, w)
				}
			default:
				op = "crash"
				got.Crash()
				ref.Crash()
			}
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if cg != cr {
				t.Fatalf("%s: cost %v, reference %v", where, cg, cr)
			}
			if got.Stats != ref.Stats || got.Events() != ref.events {
				t.Fatalf("%s: stats %+v after %d events, reference %+v after %d", where, got.Stats, got.Events(), ref.Stats, ref.events)
			}
			if err := checkWriteBuffer(got, ref); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for f := uint32(0); f < frames; f++ {
				p := PageID{Kind: KindNVM, Frame: f}
				if !bytes.Equal(got.Data(p), ref.data(f)) {
					t.Fatalf("%s: NVM frame %d differs from the reference", where, f)
				}
				if got.Gen(p) != ref.gens[f] {
					t.Fatalf("%s: frame %d at generation %d, reference %d", where, f, got.Gen(p), ref.gens[f])
				}
			}
		}
	}
}

// adrPageCycle returns one ADR page update as a checkpoint copier issues
// it: copy a page into NVM, patch part of it, write back the page and the
// patch, fence.
func adrPageCycle(m *Memory) func() {
	src, dst := PageID{Kind: KindNVM, Frame: 1}, PageID{Kind: KindNVM, Frame: 2}
	patch := make([]byte, 3*LineSize)
	return func() {
		m.CopyPage(dst, src)
		m.WriteAt(dst, 100, patch)
		m.FlushPage(dst)
		m.Flush(dst, 100, len(patch))
		m.Fence()
	}
}

// TestADRPageCycleAllocatesNothing pins the write buffer's steady state:
// once warm, a page cycle reuses the drained frame entry instead of
// allocating a shadow.
func TestADRPageCycleAllocatesNothing(t *testing.T) {
	m := New(Config{NVMFrames: 64, DRAMFrames: 1, Persist: ModeADR}, simclock.DefaultCostModel())
	cycle := adrPageCycle(m)
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("an ADR page cycle allocates %v times, want 0", n)
	}
	if m.UnflushedLines() != 0 {
		t.Errorf("%d lines left unflushed after the fence", m.UnflushedLines())
	}
}

// BenchmarkADRPageCycle times one page copy, patch, write-back and fence.
func BenchmarkADRPageCycle(b *testing.B) {
	m := New(Config{NVMFrames: 64, DRAMFrames: 1, Persist: ModeADR}, simclock.DefaultCostModel())
	cycle := adrPageCycle(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkFence times one store+flush+fence while 10k other lines sit
// unflushed in the write buffer.
func BenchmarkFence(b *testing.B) {
	const dirty = 10_000
	m := New(Config{NVMFrames: 1024, DRAMFrames: 1, Persist: ModeADR}, simclock.DefaultCostModel())
	line := make([]byte, LineSize)
	for i := 0; i < dirty; i++ {
		m.WriteAt(PageID{Kind: KindNVM, Frame: uint32(1 + i/(PageSize/LineSize))}, i%(PageSize/LineSize)*LineSize, line)
	}
	hot := PageID{Kind: KindNVM, Frame: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteAt(hot, 0, line)
		m.Flush(hot, 0, LineSize)
		m.Fence()
	}
	if m.UnflushedLines() != dirty {
		b.Fatalf("%d lines buffered, want %d", m.UnflushedLines(), dirty)
	}
}
