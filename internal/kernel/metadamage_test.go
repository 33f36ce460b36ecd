package kernel

import (
	"fmt"
	"testing"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/mem"
)

// TestPoisonedMetadataFrameKeepsCheckpoint poisons each reserved metadata
// frame whole after two checkpoints, then crashes and restores, in both
// persistence modes. No single frame holds both copies of the commit
// record, so every case must restore the committed version and its data.
func TestPoisonedMetadataFrameKeepsCheckpoint(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		for f := uint32(0); f < alloc.ReservedMetaFrames; f++ {
			t.Run(fmt.Sprintf("%s/frame-%d", mode, f), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.CheckpointEvery = 0
				cfg.SkipDefaultServices = true
				cfg.Mem.Persist = mode
				m := New(cfg)
				p, err := m.NewProcess("app", 1)
				if err != nil {
					t.Fatal(err)
				}
				va, _, _ := p.Mmap(2, caps.PMODefault)
				for _, s := range []string{"first", "second"} {
					if _, err := m.Run(p, p.MainThread(), func(e *Env) error { return e.Write(va, []byte(s)) }); err != nil {
						t.Fatal(err)
					}
					m.TakeCheckpoint()
				}
				want := m.Ckpt.CommittedVersion()

				m.Memory.InjectPoison(mem.PageID{Kind: mem.KindNVM, Frame: f}, 0, mem.PageSize, uint64(f)+1)
				m.Crash()
				if err := m.Restore(); err != nil {
					t.Fatalf("restore with metadata frame %d poisoned: %v", f, err)
				}
				if got := m.Ckpt.CommittedVersion(); got != want {
					t.Fatalf("restored version %d, want %d", got, want)
				}
				p = m.Process("app")
				buf := make([]byte, len("second"))
				if _, err := m.Run(p, p.MainThread(), func(e *Env) error { return e.Read(va, buf) }); err != nil {
					t.Fatal(err)
				}
				if string(buf) != "second" {
					t.Errorf("restored memory = %q, want %q", buf, "second")
				}
			})
		}
	}
}

// TestRestoreResyncsLaggingMirror: under ADR a crash at the commit record's
// store can leave the primary durable and the mirror one version behind, so
// the round commits through the primary alone. If the next round's commit
// then crashes with the primary's line torn, the check word rejects it and
// restore falls back to the mirror, which must hold the version the last
// restore landed on: one older would scrub snapshots of a version already
// restored, and the restore would fail.
//
// A round writes one byte and checkpoints; its last three persistence
// events are the record's store, clwb and sfence. Round 2 crashes at the
// store, and every seed whose restore lands on v2 goes on: round 3 crashes
// at each of its last three events, and each restore must land on v2 or v3
// with that version's byte.
func TestRestoreResyncsLaggingMirror(t *testing.T) {
	type rig struct {
		m     *Machine
		round func(v byte)
		read  func() byte
	}
	boot := func(seed uint64) rig {
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 0
		cfg.SkipDefaultServices = true
		cfg.Mem.Persist = mem.ModeADR
		cfg.Mem.CrashSeed = seed
		m := New(cfg)
		p, err := m.NewProcess("app", 1)
		if err != nil {
			t.Fatal(err)
		}
		va, _, err := p.Mmap(4, caps.PMODefault)
		if err != nil {
			t.Fatal(err)
		}
		run := func(fn func(e *Env) error) {
			p := m.Process("app")
			if _, err := m.Run(p, p.MainThread(), fn); err != nil {
				t.Fatal(err)
			}
		}
		r := rig{m: m}
		r.round = func(v byte) {
			run(func(e *Env) error { return e.Write(va, []byte{v}) })
			m.TakeCheckpoint()
		}
		r.read = func() byte {
			var b [1]byte
			run(func(e *Env) error { return e.Read(va, b[:]) })
			return b[0]
		}
		r.round(1)
		return r
	}
	events := func(r rig, v byte) uint64 {
		before := r.m.Memory.Events()
		r.round(v)
		return r.m.Memory.Events() - before
	}
	store := events(boot(1), 2) - 2

	// afterRound2 boots seed, crashes round 2 at the record's store and
	// restores, reporting whether the restore landed on v2.
	afterRound2 := func(seed uint64) (rig, bool) {
		r := boot(seed)
		if !crashAtEvent(t, r.m, store, func() { r.round(2) }) {
			t.Fatalf("seed %d: round 2 ended before event %d", seed, store)
		}
		if err := r.m.Restore(); err != nil {
			t.Fatalf("seed %d: restore after round 2: %v", seed, err)
		}
		return r, r.m.Ckpt.CommittedVersion() == 2
	}
	landed := 0
	for seed := uint64(1); seed <= 200; seed++ {
		r, ok := afterRound2(seed)
		if !ok {
			continue
		}
		landed++
		n := events(r, 3)
		for k := n - 2; k <= n; k++ {
			r, _ := afterRound2(seed)
			if !crashAtEvent(t, r.m, k, func() { r.round(3) }) {
				t.Fatalf("seed %d: round 3 ended before event %d", seed, k)
			}
			if err := r.m.Restore(); err != nil {
				t.Errorf("seed %d, round 3 event %d: %v", seed, k, err)
				continue
			}
			v := r.m.Ckpt.CommittedVersion()
			if v != 2 && v != 3 {
				t.Errorf("seed %d, round 3 event %d: restored v%d, want v2 or v3", seed, k, v)
			} else if got := r.read(); got != byte(v) {
				t.Errorf("seed %d, round 3 event %d: byte %d at v%d", seed, k, got, v)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no seed committed round 2 through the primary alone")
	}
	t.Logf("round 2 fires %d events; %d of 200 seeds restored it through the primary alone", store+2, landed)
}
