package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"treesls/internal/simclock"
)

// scanFence is the reference fence: a full scan of the write buffer that
// drains every flushed line, ignoring the wbFlushed index.
func scanFence(m *Memory) simclock.Duration {
	m.Stats.Fences++
	m.crashEvent()
	for k, wl := range m.wb {
		if wl.flushed {
			delete(m.wb, k)
		}
	}
	m.wbFlushed = m.wbFlushed[:0]
	return m.model.SFence
}

// TestFenceMatchesScanReference drives random ADR store/flush/fence/
// publish/re-dirty/crash sequences through two memories in lockstep — one
// fencing through the wbFlushed index, one through the full-buffer scan —
// and requires identical costs, write buffers, stats and NVM bytes after
// every step.
func TestFenceMatchesScanReference(t *testing.T) {
	const frames = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := newADRMemory(uint64(seed)), newADRMemory(uint64(seed))
		page := func() PageID { return PageID{Kind: KindNVM, Frame: uint32(1 + rng.Intn(frames))} }
		// Spans cluster in the first few lines so lines are re-dirtied,
		// re-flushed and fenced repeatedly.
		span := func(max int) (int, int) {
			off := rng.Intn(8 * LineSize)
			return off, 1 + rng.Intn(min(max, PageSize-off))
		}
		for step := 0; step < 2000; step++ {
			var op string
			var cg, cr simclock.Duration
			switch r := rng.Intn(100); {
			case r < 30:
				op = "write"
				p := page()
				off, n := span(3 * LineSize)
				data := make([]byte, n)
				rng.Read(data)
				cg, cr = got.WriteAt(p, off, data), ref.WriteAt(p, off, data)
			case r < 50:
				op = "flush"
				p := page()
				off, n := span(4 * LineSize)
				cg, cr = got.Flush(p, off, n), ref.Flush(p, off, n)
			case r < 55:
				op = "flush-page"
				p := page()
				cg, cr = got.FlushPage(p), ref.FlushPage(p)
			case r < 70:
				op = "fence"
				cg, cr = got.Fence(), scanFence(ref)
			case r < 80:
				op = "persist-atomic"
				p := page()
				off, n := span(2 * LineSize)
				data := make([]byte, n)
				rng.Read(data)
				cg, cr = got.PersistAtomic(p, off, data), ref.PersistAtomic(p, off, data)
			case r < 97:
				// Re-dirty a line that is flushed but not yet fenced.
				op = "redirty"
				if len(got.wbFlushed) == 0 {
					continue
				}
				k := got.wbFlushed[rng.Intn(len(got.wbFlushed))]
				p := PageID{Kind: KindNVM, Frame: k.frame}
				data := []byte{byte(rng.Intn(256))}
				off := int(k.line)*LineSize + rng.Intn(LineSize)
				cg, cr = got.WriteAt(p, off, data), ref.WriteAt(p, off, data)
			default:
				op = "crash"
				got.Crash()
				ref.Crash()
			}
			if cg != cr {
				t.Fatalf("seed %d step %d (%s): cost %v, reference %v", seed, step, op, cg, cr)
			}
			if got.UnflushedLines() != ref.UnflushedLines() {
				t.Fatalf("seed %d step %d (%s): %d unflushed lines, reference %d",
					seed, step, op, got.UnflushedLines(), ref.UnflushedLines())
			}
			if got.Stats != ref.Stats {
				t.Fatalf("seed %d step %d (%s): stats %+v, reference %+v", seed, step, op, got.Stats, ref.Stats)
			}
			indexed := make(map[lineKey]bool, len(got.wbFlushed))
			for _, k := range got.wbFlushed {
				indexed[k] = true
			}
			for k, wl := range got.wb {
				rl, ok := ref.wb[k]
				if !ok || *rl != *wl {
					t.Fatalf("seed %d step %d (%s): write-buffer line %v differs from the reference", seed, step, op, k)
				}
				if wl.flushed && !indexed[k] {
					t.Fatalf("seed %d step %d (%s): flushed line %v missing from wbFlushed", seed, step, op, k)
				}
			}
			for f := uint32(1); f <= frames; f++ {
				p := PageID{Kind: KindNVM, Frame: f}
				if !bytes.Equal(got.Data(p), ref.Data(p)) {
					t.Fatalf("seed %d step %d (%s): NVM frame %d differs from the reference", seed, step, op, f)
				}
			}
		}
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
