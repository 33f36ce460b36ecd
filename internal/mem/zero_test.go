package mem

import (
	"bytes"
	"slices"
	"testing"

	"treesls/internal/simclock"
)

func nvmPage(f uint32) PageID { return PageID{Kind: KindNVM, Frame: f} }

func newModeMemory(mode PersistMode) *Memory {
	return New(Config{NVMFrames: 512, DRAMFrames: 300, Persist: mode, CrashSeed: 7}, simclock.DefaultCostModel())
}

// TestDemandZeroAllocatesNothing checks that zeroing a frame that has no
// bytes of its own leaves it on the shared zero frame: ZeroPage of a
// never-written frame inside an existing chunk, AllocDRAM of a fresh frame
// and the DRAM wipe in Crash allocate nothing, yet each bumps the frame's
// write generation. A DRAM frame with bytes of its own keeps them through
// the wipe, cleared in place.
func TestDemandZeroAllocatesNothing(t *testing.T) {
	for _, mode := range []PersistMode{ModeEADR, ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newModeMemory(mode)
			// Under ADR the zeroing stores are buffered until flushed and
			// fenced; draining them lets the next page reuse the entry.
			zeroPage := func(p PageID) {
				m.ZeroPage(p)
				m.FlushPage(p)
				m.Fence()
			}
			zeroPage(nvmPage(0)) // makes chunk 0 and a spare write-buffer entry
			next := uint32(1)
			if n := testing.AllocsPerRun(100, func() {
				zeroPage(nvmPage(next))
				next++
			}); n != 0 {
				t.Errorf("ZeroPage of a never-written frame: %v allocations, want 0", n)
			}
			for f := uint32(0); f < next; f++ {
				if g := m.Gen(nvmPage(f)); g != 1 || !onZeroFrame(m.nvm.data(f)) {
					t.Fatalf("NVM:%d after ZeroPage: generation %d (want 1), on the zero frame %v", f, g, onZeroFrame(m.nvm.data(f)))
				}
			}

			dram := make([]PageID, 0, 128)
			dram = append(dram, m.AllocDRAM()) // makes chunk 0
			if n := testing.AllocsPerRun(100, func() { dram = append(dram, m.AllocDRAM()) }); n != 0 {
				t.Errorf("AllocDRAM of a fresh frame: %v allocations, want 0", n)
			}
			for _, p := range dram {
				if g := m.Gen(p); g != 1 || !onZeroFrame(m.Data(p)) {
					t.Fatalf("%v after AllocDRAM: generation %d (want 1), on the zero frame %v", p, g, onZeroFrame(m.Data(p)))
				}
			}

			owned := dram[len(dram)-1]
			m.WriteAt(owned, 0, []byte("volatile"))
			own := &m.Data(owned)[0]
			gens := make([]uint64, len(dram))
			for i, p := range dram {
				gens[i] = m.Gen(p)
			}
			const crashes = 10
			if n := testing.AllocsPerRun(crashes-1, m.Crash); n != 0 {
				t.Errorf("the DRAM wipe in Crash: %v allocations, want 0", n)
			}
			for i, p := range dram {
				if g := m.Gen(p); g != gens[i]+crashes {
					t.Fatalf("%v: generation %d after %d crashes, want %d", p, g, crashes, gens[i]+crashes)
				}
				if !bytes.Equal(m.Data(p), zeroFrame[:]) {
					t.Fatalf("%v survived the DRAM wipe", p)
				}
				if p != owned && !onZeroFrame(m.Data(p)) {
					t.Fatalf("%v left the zero frame in the DRAM wipe", p)
				}
			}
			if &m.Data(owned)[0] != own {
				t.Fatalf("%v lost its own bytes in the DRAM wipe", owned)
			}
		})
	}
}

// TestZeroFrameStaysZero runs every store and damage path on frames that
// still read the shared zero frame. After each, the frame holds exactly the
// bytes it would hold had it owned zeroed bytes from the start, and the
// frames touched only by a read, ZeroPage or AllocDRAM, like the shared
// zero frame itself, still read all zeros.
func TestZeroFrameStaysZero(t *testing.T) {
	for _, mode := range []PersistMode{ModeEADR, ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newModeMemory(mode)
			zero := make([]byte, PageSize)
			bystanders := []PageID{nvmPage(400), nvmPage(401), m.AllocDRAM()}
			m.Data(bystanders[0])
			m.ZeroPage(bystanders[1])
			m.FlushPage(bystanders[1])
			m.Fence()
			// owned gives frame f bytes of its own, all zero, and drains
			// the stores so a crash cannot touch them: the reference that
			// the zero frame must behave like.
			owned := func(f uint32) PageID {
				p := nvmPage(f)
				m.WriteRaw(p, 0, zero)
				m.FlushPage(p)
				m.Fence()
				return p
			}
			// fresh returns frame f touched by a read, still on the zero
			// frame.
			fresh := func(f uint32) PageID {
				p := nvmPage(f)
				if !bytes.Equal(m.Data(p), zero) || !onZeroFrame(m.Data(p)) {
					t.Fatalf("%v does not start on the zero frame", p)
				}
				return p
			}
			check := func(op string, p PageID, want []byte) {
				t.Helper()
				if got := m.Data(p); !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("%s: %v byte %d is %#x, want %#x", op, p, i, got[i], want[i])
				}
				if !bytes.Equal(zeroFrame[:], zero) {
					t.Fatalf("%s: the shared zero frame was written", op)
				}
				for _, b := range bystanders {
					if !bytes.Equal(m.Data(b), zero) || !onZeroFrame(m.Data(b)) {
						t.Fatalf("%s: %v, never stored to, no longer reads the zero frame", op, b)
					}
				}
			}
			with := func(off int, data []byte) []byte {
				b := make([]byte, PageSize)
				copy(b[off:], data)
				return b
			}

			payload := []byte("demand-zero payload")
			p := fresh(1)
			m.WriteAt(p, 100, payload)
			check("WriteAt", p, with(100, payload))
			written := p

			p = fresh(2)
			m.WriteRaw(p, PageSize-len(payload), payload)
			check("WriteRaw", p, with(PageSize-len(payload), payload))

			p = fresh(3)
			m.CopyPage(p, written)
			check("CopyPage into a zero frame", p, with(100, payload))
			d := m.AllocDRAM()
			m.CopyPage(d, written)
			check("CopyPage into a fresh DRAM frame", d, with(100, payload))
			m.CopyPage(written, fresh(4))
			check("CopyPage out of a zero frame", written, zero)

			p = fresh(5)
			m.PersistAtomic(p, 64, payload[:8])
			check("PersistAtomic", p, with(64, payload[:8]))

			p, ref := fresh(6), owned(50)
			m.InjectRot(p, 200, 70, 11)
			m.InjectRot(ref, 200, 70, 11)
			check("InjectRot", p, m.Data(ref))
			p, ref = fresh(7), owned(51)
			m.InjectPoison(p, 0, 1, 12)
			m.InjectPoison(ref, 0, 1, 12)
			check("InjectPoison", p, m.Data(ref))
			if !m.Poisoned(p, 0, 1) {
				t.Fatalf("InjectPoison: %v line 0 not poisoned", p)
			}

			// A crash with zeroed frames still buffered: one that owned
			// durable bytes (dropped or torn lines revert to them), one
			// that never did (its lines revert to zeros).
			full := bytes.Repeat([]byte{0xAA}, PageSize)
			durable := fresh(8)
			m.WriteAt(durable, 0, full)
			m.FlushPage(durable)
			m.Fence()
			m.ZeroPage(durable)
			zeroed := fresh(9)
			m.ZeroPage(zeroed)
			m.Crash()
			check("Crash of a never-written zeroed frame", zeroed, zero)
			got := m.Data(durable)
			if mode == ModeEADR {
				check("Crash of a zeroed frame", durable, zero)
			} else {
				if !bytes.Contains(got, full[:WordSize]) || m.Stats.CrashLinesDropped+m.Stats.CrashLinesTorn == 0 {
					t.Fatalf("Crash: no line of %v dropped or torn", durable)
				}
				want := slices.Clone(got)
				for w := 0; w < PageSize; w += WordSize {
					if !bytes.Equal(got[w:w+WordSize], full[:WordSize]) {
						clear(want[w : w+WordSize])
					}
				}
				check("Crash of a zeroed frame", durable, want)
			}
		})
	}
}

// TestTouchedFramesAreVisited checks that any access marks a frame touched,
// not only a store: forEachFrame, and so the DRAM wipe and the choice of
// crash-time media-fault victims, visits a frame read or zeroed but never
// written.
func TestTouchedFramesAreVisited(t *testing.T) {
	m := newTestMemory()
	buf := make([]byte, 8)
	m.Data(nvmPage(3))
	m.WriteAt(nvmPage(5), 0, buf)
	m.ZeroPage(nvmPage(7))
	m.ReadAt(nvmPage(9), 0, buf)
	m.ReadRaw(nvmPage(11), 0, buf)
	m.PageHash(nvmPage(13))
	m.Gen(nvmPage(127))
	d := m.AllocDRAM()
	var nvm, dram []uint32
	m.nvm.forEachFrame(0, func(f uint32, _ []byte) { nvm = append(nvm, f) })
	m.dram.forEachFrame(0, func(f uint32, _ []byte) { dram = append(dram, f) })
	if want := []uint32{3, 5, 7, 9, 11, 13, 127}; !slices.Equal(nvm, want) {
		t.Errorf("touched NVM frames %v, want %v", nvm, want)
	}
	if want := []uint32{d.Frame}; !slices.Equal(dram, want) {
		t.Errorf("touched DRAM frames %v, want %v", dram, want)
	}
}

// TestOwnFrameNeverMoves pins the frame invariant (see frameChunk) that the
// vm package's software TLB keeps frame bytes on: once a store gives a page
// bytes of its own, Data returns those same bytes, at the same address, and
// a read through the kept bytes with ReadFrame returns and charges what
// ReadAt does, across every path that changes a frame: ZeroPage, CopyPage,
// WriteAt, WriteRaw, PersistAtomic, media damage, a DRAM frame freed and
// allocated again, and Crash with its DRAM wipe and ADR damage.
func TestOwnFrameNeverMoves(t *testing.T) {
	for _, mode := range []PersistMode{ModeEADR, ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newModeMemory(mode)
			src := nvmPage(20)
			m.WriteAt(src, 0, bytes.Repeat([]byte{0x5A}, PageSize))
			pages := []PageID{nvmPage(3), m.AllocDRAM()}
			kept := make([][]byte, len(pages))
			for i, p := range pages {
				if OwnFrame(m.Data(p)) {
					t.Fatalf("%v owns bytes before its first store", p)
				}
				m.WriteAt(p, 8, []byte("first store"))
				if kept[i] = m.Data(p); !OwnFrame(kept[i]) {
					t.Fatalf("%v still on the zero frame after its first store", p)
				}
			}
			check := func(step string) {
				t.Helper()
				for i, p := range pages {
					d := m.Data(p)
					if &d[0] != &kept[i][0] || len(d) != PageSize || !OwnFrame(d) {
						t.Fatalf("%s: %v moved off the bytes its first store gave it", step, p)
					}
					for _, off := range []int{0, 8, 100, PageSize - 8} {
						var viaKept, viaPage [8]byte
						c1 := m.ReadFrame(p, kept[i], off, viaKept[:])
						c2 := m.ReadAt(p, off, viaPage[:])
						if viaKept != viaPage || c1 != c2 {
							t.Fatalf("%s: %v at %d: kept bytes read %x for %d, ReadAt %x for %d", step, p, off, viaKept, c1, viaPage, c2)
						}
					}
				}
			}
			check("first store")
			for _, p := range pages {
				m.ZeroPage(p)
			}
			check("ZeroPage")
			for _, p := range pages {
				m.CopyPage(p, src)
			}
			check("CopyPage")
			for _, p := range pages {
				m.WriteAt(p, 100, []byte("WriteAt"))
				m.WriteRaw(p, 200, []byte("WriteRaw"))
				m.PersistAtomic(p, 0, []byte("atomic!!"))
			}
			check("WriteAt, WriteRaw and PersistAtomic")
			m.InjectRot(pages[0], 64, 128, 5)
			m.InjectPoison(pages[0], 512, 1, 6)
			check("media damage")

			m.FreeDRAM(pages[1])
			if p := m.AllocDRAM(); p != pages[1] {
				t.Fatalf("AllocDRAM after FreeDRAM(%v) returned %v", pages[1], p)
			}
			check("DRAM free and reallocation")

			// Unflushed stores at the crash: under ADR their lines are
			// dropped or torn in place.
			for _, p := range pages {
				m.WriteAt(p, 0, bytes.Repeat([]byte{0xC3}, PageSize))
			}
			m.Crash()
			if mode == ModeADR && m.Stats.CrashLinesDropped+m.Stats.CrashLinesTorn == 0 {
				t.Fatal("Crash under ADR damaged no line")
			}
			check("Crash")
			if d := m.Data(pages[1]); !bytes.Equal(d, zeroFrame[:]) {
				t.Fatalf("%v survived the DRAM wipe", pages[1])
			}
		})
	}
}
