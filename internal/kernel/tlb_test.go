package kernel

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
	"treesls/internal/vm"
)

// TestTLBMatchesMemory is the differential test of the software TLB: a
// seeded schedule of Read, ReadU64, Write and WriteU64 by two processes
// sharing one PMO, interleaved with checkpoints, evictions and power
// failures, checks the bytes of every access against Memory.Data of the
// page its slot holds at that moment. The pages move under the cached
// translations: copy-on-write faults, hybrid-copy migration to DRAM and
// demotion back (hot after one fault, demoted after two idle rounds, so
// freed DRAM frames are handed to other pages), eviction and swap-in, and
// pages first read while on the shared zero frame and then given bytes by
// the other process. A TLB that reads a frame its slot no longer holds, or
// keeps the zero frame, fails here.
func TestTLBMatchesMemory(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) { runTLBSchedule(t, mode) })
	}
}

func runTLBSchedule(t *testing.T, mode mem.PersistMode) {
	const pages = 24
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	cfg.Checkpoint.HotThreshold = 1
	cfg.Checkpoint.DemoteAfter = 2
	cfg.Mem.Persist = mode
	cfg.Mem.CrashSeed = 5
	m := New(cfg)
	app, err := m.NewProcess("app", 1)
	if err != nil {
		t.Fatal(err)
	}
	va, pmo, err := app.Mmap(pages, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := m.NewProcess("peer", 1)
	if err != nil {
		t.Fatal(err)
	}
	pva, err := peer.MapShared(pmo, caps.RightRead|caps.RightWrite)
	if err != nil {
		t.Fatal(err)
	}

	step := 0
	// page returns the bytes of the page that p's slot for va holds now.
	page := func(p *Process, va uint64) []byte {
		t.Helper()
		r := p.VMS.FindRegion(va)
		s := r.PMO.Lookup(r.PMOOffset + va/mem.PageSize - r.VABase/mem.PageSize)
		if s == nil || s.SwappedOut {
			t.Fatalf("step %d: %s's page at %#x is not resident after an access", step, p.Name, va)
		}
		return m.Memory.Data(s.Page)
	}
	// check compares got, what an access of len(got) bytes at va read or
	// wrote, with the bytes of the pages the access spans.
	check := func(op string, p *Process, va uint64, got []byte) {
		t.Helper()
		for len(got) > 0 {
			off := int(va % mem.PageSize)
			n := min(mem.PageSize-off, len(got))
			if want := page(p, va)[off : off+n]; !bytes.Equal(got[:n], want) {
				t.Fatalf("step %d: %s by %s at %#x: %x, but the slot's page holds %x", step, op, p.Name, va, got[:n], want)
			}
			va += uint64(n)
			got = got[n:]
		}
	}
	run := func(p *Process, fn func(e *Env) error) {
		t.Helper()
		if _, err := m.Run(p, p.MainThread(), fn); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	read := func(p *Process, va uint64, n int) {
		t.Helper()
		buf := make([]byte, n)
		run(p, func(e *Env) error { return e.Read(va, buf) })
		check("Read", p, va, buf)
	}
	readU64 := func(p *Process, va uint64) {
		t.Helper()
		var v uint64
		run(p, func(e *Env) (err error) { v, err = e.ReadU64(va); return err })
		check("ReadU64", p, va, binary.LittleEndian.AppendUint64(nil, v))
	}
	rng := rand.New(rand.NewSource(int64(mode) + 1))
	write := func(p *Process, va uint64, n int) {
		t.Helper()
		data := make([]byte, n)
		rng.Read(data)
		run(p, func(e *Env) error { return e.Write(va, data) })
		check("Write", p, va, data)
	}
	writeU64 := func(p *Process, va uint64) {
		t.Helper()
		v := rng.Uint64()
		run(p, func(e *Env) error { return e.WriteU64(va, v) })
		check("WriteU64", p, va, binary.LittleEndian.AppendUint64(nil, v))
	}

	// Every page is read while it still has no bytes of its own, then
	// the peer gives every other page bytes through its own mapping.
	zeroReads := 0
	for i := uint64(0); i < pages; i++ {
		read(app, va+i*mem.PageSize+8, 16)
		if !mem.OwnFrame(page(app, va+i*mem.PageSize)) {
			zeroReads++
		}
	}
	for i := uint64(0); i < pages; i += 2 {
		write(peer, pva+i*mem.PageSize, 64)
	}
	for i := uint64(0); i < pages; i++ {
		read(app, va+i*mem.PageSize, 80)
	}
	m.TakeCheckpoint()

	var vmStats vm.Stats
	addStats := func() {
		for _, p := range []*Process{app, peer} {
			s := p.AS.Stats
			vmStats.WriteFaults += s.WriteFaults
			vmStats.SwapFaults += s.SwapFaults
		}
	}
	crashes := 0
	for step = 1; step <= 4000; step++ {
		p, base := app, va
		if rng.Intn(4) == 0 {
			p, base = peer, pva
		}
		at := base + uint64(rng.Intn(pages*mem.PageSize-256))
		if rng.Intn(8) == 0 {
			at = base + uint64(rng.Intn(pages-1)+1)*mem.PageSize - uint64(rng.Intn(8)) // straddles two pages
		}
		switch r := rng.Intn(100); {
		case r < 30:
			read(p, at, 1+rng.Intn(200))
		case r < 50:
			readU64(p, at)
		case r < 65:
			write(p, at, 1+rng.Intn(200))
		case r < 80:
			writeU64(p, at)
		case r < 92:
			m.TakeCheckpoint()
		case r < 98:
			if _, err := m.EvictColdPages(1 + rng.Intn(4)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			addStats()
			m.Crash()
			if err := m.Restore(); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			crashes++
			app, peer = m.Process("app"), m.Process("peer")
		}
	}
	addStats()

	st := m.Ckpt.Stats
	t.Logf("%d zero-frame reads, %d COW faults, %d migrations, %d demotions, %d swap-ins, %d crashes",
		zeroReads, vmStats.WriteFaults, st.Migrations, st.Demotions, vmStats.SwapFaults, crashes)
	if zeroReads == 0 || vmStats.WriteFaults == 0 || st.Migrations == 0 || st.Demotions == 0 ||
		vmStats.SwapFaults == 0 || crashes == 0 {
		t.Fatal("the schedule missed a way a page moves under its translation")
	}
}

// TestRestoreKeepsAddressSpaces checks that a warm crash and restore hands
// each process the address space it had at the crash, reset to a new one's
// state: zero Stats, parked in the revived VM space, and an empty table,
// so the first access to every page takes, and is charged, a map fault.
func TestRestoreKeepsAddressSpaces(t *testing.T) {
	const pages = 4
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	names := []string{"a", "b", "c"}
	vas := map[string]uint64{}
	for i, name := range names {
		p, err := m.NewProcess(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		va, _, err := p.Mmap(pages, caps.PMODefault)
		if err != nil {
			t.Fatal(err)
		}
		vas[name] = va
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			for j := uint64(0); j < pages; j++ {
				if err := e.WriteU64(va+j*4096, uint64(10*i)+j); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	spaces := map[string]*vm.AddressSpace{}
	for _, name := range names {
		spaces[name] = m.Process(name).AS
	}

	for cycle := 0; cycle < 3; cycle++ {
		m.Crash()
		if err := m.Restore(); err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			p := m.Process(name)
			if p.AS != spaces[name] {
				t.Fatalf("cycle %d: %s got a new address space", cycle, name)
			}
			if p.AS.Stats != (vm.Stats{}) || p.VMS.PageTable != p.AS || p.AS.Space != p.VMS {
				t.Fatalf("cycle %d: %s's address space kept Stats %+v or is not parked in its space", cycle, name, p.AS.Stats)
			}
			for j := uint64(0); j < pages; j++ {
				lane := &m.Cores[0].Lane
				before := lane.Now()
				v, err := p.AS.ReadU64(lane, vas[name]+j*4096)
				if err != nil || v != uint64(10*i)+j {
					t.Fatalf("cycle %d: %s page %d = %d, %v", cycle, name, j, v, err)
				}
				if p.AS.Stats.MapFaults != j+1 || simclock.Duration(lane.Now()-before) < m.Model.PageFaultTrap {
					t.Fatalf("cycle %d: %s page %d: %d map faults, charged %d; want a charged map fault per page",
						cycle, name, j, p.AS.Stats.MapFaults, lane.Now()-before)
				}
			}
		}
	}
}
