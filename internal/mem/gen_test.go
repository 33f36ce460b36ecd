package mem

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"treesls/internal/simclock"
)

// pageHashOf is PageHash's reference: the CRC-32C and the CRC-32 (IEEE) of
// b, computed afresh through hash/crc32's streaming interface.
func pageHashOf(b []byte) uint64 {
	c := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	c.Write(b)
	ieee := crc32.NewIEEE()
	ieee.Write(b)
	return uint64(c.Sum32())<<32 | uint64(ieee.Sum32())
}

// TestPageHashTracksEveryWrite runs a random sequence over every store
// primitive and every damage path, in both persistence modes, and checks in
// lockstep after each step that every materialized frame's cached PageHash
// equals the hash of its bytes computed afresh, and that a frame
// whose bytes changed has a new write generation. The check itself warms
// every frame's cache, so a path that changes bytes without bumping the
// generation leaves a stale hash behind and fails here.
func TestPageHashTracksEveryWrite(t *testing.T) {
	for _, mode := range []PersistMode{ModeEADR, ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			const nvmFrames, dramFrames = 12, 6
			m := New(Config{
				NVMFrames: nvmFrames, DRAMFrames: dramFrames,
				Persist: mode, CrashSeed: 5,
				Media: MediaFaultConfig{CrashFaults: 2, Seed: 9},
			}, simclock.DefaultCostModel())
			rng := rand.New(rand.NewSource(int64(mode) + 1))

			var dram []PageID // allocated DRAM pages
			page := func() PageID {
				if len(dram) > 0 && rng.Intn(3) == 0 {
					return dram[rng.Intn(len(dram))]
				}
				return PageID{Kind: KindNVM, Frame: uint32(rng.Intn(nvmFrames))}
			}
			nvm := func() PageID { return PageID{Kind: KindNVM, Frame: uint32(rng.Intn(nvmFrames))} }
			span := func() (off, n int) {
				off = rng.Intn(PageSize)
				return off, 1 + rng.Intn(min(PageSize-off, 3*LineSize))
			}
			payload := func(n int) []byte {
				b := make([]byte, n)
				rng.Read(b)
				return b
			}

			type seen struct {
				b   []byte
				gen uint64
			}
			prev := map[PageID]seen{}
			zero := make([]byte, PageSize)
			dramWiped, crashPoisoned := 0, uint64(0)
			check := func(step int, op string) {
				t.Helper()
				for _, dev := range []*Device{m.nvm, m.dram} {
					dev.forEachFrame(0, func(f uint32, b []byte) {
						p := PageID{Kind: dev.kind, Frame: f}
						if got, want := m.PageHash(p), pageHashOf(m.Data(p)); got != want {
							t.Fatalf("step %d (%s): %v PageHash %#x, hash of its bytes %#x", step, op, p, got, want)
						}
						gen := m.Gen(p)
						if old, ok := prev[p]; ok && old.gen == gen && !bytes.Equal(old.b, b) {
							t.Fatalf("step %d (%s): %v bytes changed under generation %d", step, op, p, gen)
						}
						prev[p] = seen{b: bytes.Clone(b), gen: gen}
					})
				}
			}

			for step := 0; step < 1500; step++ {
				var op string
				switch rng.Intn(12) {
				case 0, 1:
					op = "WriteAt"
					off, n := span()
					m.WriteAt(page(), off, payload(n))
				case 2:
					op = "WriteRaw"
					off, n := span()
					m.WriteRaw(page(), off, payload(n))
				case 3:
					op = "CopyPage"
					m.CopyPage(page(), page())
				case 4:
					op = "ZeroPage"
					m.ZeroPage(page())
				case 5:
					op = "PersistAtomic"
					off, n := span()
					m.PersistAtomic(page(), off, payload(n))
				case 6:
					op = "AllocDRAM"
					if p := m.AllocDRAM(); !p.IsNil() {
						dram = append(dram, p)
					}
				case 7:
					op = "FreeDRAM"
					if len(dram) > 0 {
						i := rng.Intn(len(dram))
						m.FreeDRAM(dram[i])
						dram = append(dram[:i], dram[i+1:]...)
					}
				case 8:
					op = "Flush+Fence"
					m.FlushPage(nvm())
					if rng.Intn(2) == 0 {
						m.Fence()
					}
				case 9:
					op = "InjectRot"
					off, n := span()
					m.InjectRot(nvm(), off, n, rng.Uint64())
				case 10:
					op = "InjectPoison"
					off, n := span()
					m.InjectPoison(nvm(), off, n, rng.Uint64())
				case 11:
					op = "Crash"
					for _, p := range dram {
						if !bytes.Equal(m.Data(p), zero) {
							dramWiped++
						}
					}
					poisoned := m.Stats.PoisonedLines
					m.Crash()
					crashPoisoned += m.Stats.PoisonedLines - poisoned
					dram = dram[:0]
				}
				check(step, op)
			}

			// Every damage path must actually have changed bytes.
			s := m.Stats
			if s.RottedLines == 0 || s.PoisonedLines == crashPoisoned || crashPoisoned == 0 || dramWiped == 0 {
				t.Fatalf("damage paths not exercised: rotted=%d poisoned=%d (at crashes %d) dram wiped=%d",
					s.RottedLines, s.PoisonedLines, crashPoisoned, dramWiped)
			}
			if mode == ModeADR && (s.CrashLinesDropped == 0 || s.CrashLinesTorn == 0) {
				t.Fatalf("ADR crash damage not exercised: dropped=%d torn=%d", s.CrashLinesDropped, s.CrashLinesTorn)
			}
		})
	}
}

var pageHashSink uint64

// BenchmarkPageHash times PageHash of a page that was just rewritten with
// random bytes, so every call misses the per-frame cache and hashes the
// whole 4 KiB; the rewrite copies one of eight pre-generated pages.
func BenchmarkPageHash(b *testing.B) {
	m := New(Config{NVMFrames: 4, DRAMFrames: 1}, simclock.DefaultCostModel())
	p := PageID{Kind: KindNVM, Frame: 1}
	rng := rand.New(rand.NewSource(1))
	var pages [8][PageSize]byte
	for i := range pages {
		rng.Read(pages[i][:])
	}
	b.SetBytes(PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.WriteRaw(p, 0, pages[i%len(pages)][:])
		pageHashSink = m.PageHash(p)
	}
}
