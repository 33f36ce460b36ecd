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
