package checkpoint

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/obs"
)

func TestStopAndCopyNoFaults(t *testing.T) {
	cfg := Config{Method: MethodStopAndCopy}
	h := newHarness(t, cfg, 1)
	_, pmo, _ := h.buildProc("app", 8)

	h.writePage(t, pmo, 0, []byte("v1"))
	rep := h.checkpoint()
	if rep.PagesStopCopied == 0 {
		t.Fatal("nothing stop-and-copied")
	}
	if rep.PagesMarkedRO != 0 {
		t.Error("SAC mode write-protected pages")
	}
	// Pages stay writable: no faults ever.
	if !pmo.Lookup(0).Writable {
		t.Fatal("page protected under SAC")
	}
	h.writePage(t, pmo, 0, []byte("v2"))
	if h.mgr.Stats.COWFaults != 0 {
		t.Error("COW fault under SAC")
	}
}

func TestStopAndCopyRestore(t *testing.T) {
	cfg := Config{Method: MethodStopAndCopy}
	h := newHarness(t, cfg, 1)
	_, pmo, _ := h.buildProc("app", 8)

	h.writePage(t, pmo, 0, []byte("AAAA"))
	h.writePage(t, pmo, 1, []byte("BBBB"))
	h.checkpoint() // v1: copies both
	h.writePage(t, pmo, 0, []byte("A2A2"))
	h.checkpoint() // v2: copies page 0 only

	// Post-checkpoint modification, then crash: restore must yield the
	// v2 state.
	h.writePage(t, pmo, 0, []byte("LOST"))
	h.writePage(t, pmo, 1, []byte("GONE"))
	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 4); string(got) != "A2A2" {
		t.Errorf("page 0 = %q, want A2A2", got)
	}
	if got := h.readPage(t, pmo2, 1, 4); string(got) != "BBBB" {
		t.Errorf("page 1 = %q, want BBBB", got)
	}
}

func TestSACCleanPagesNotRecopied(t *testing.T) {
	cfg := Config{Method: MethodStopAndCopy}
	h := newHarness(t, cfg, 1)
	_, pmo, _ := h.buildProc("app", 8)
	h.writePage(t, pmo, 0, []byte("x"))
	h.checkpoint()
	copied := h.mgr.Stats.PagesCopied
	rep := h.checkpoint() // nothing dirty
	if rep.PagesStopCopied != 0 || h.mgr.Stats.PagesCopied != copied {
		t.Errorf("clean round copied %d pages", rep.PagesStopCopied)
	}
}

// COW's STW pause must be much shorter than stop-and-copy's for the same
// dirty set — the core claim behind Figure 7 and TreeSLS's design.
func TestCOWPauseShorterThanSAC(t *testing.T) {
	run := func(method CopyMethod) (pause float64) {
		h := newHarness(t, Config{Method: method}, 1)
		_, pmo, _ := h.buildProc("app", 128)
		for i := uint64(0); i < 100; i++ {
			h.writePage(t, pmo, i, []byte("seed"))
		}
		h.checkpoint()
		// Dirty 100 pages, then measure the next pause.
		for i := uint64(0); i < 100; i++ {
			h.writePage(t, pmo, i, []byte("dirt"))
		}
		rep := h.checkpoint()
		return rep.STWTotal.Micros()
	}
	cow := run(MethodCOW)
	sac := run(MethodStopAndCopy)
	if sac < cow*2 {
		t.Errorf("SAC pause %.1fµs not clearly above COW pause %.1fµs", sac, cow)
	}
}

func TestSACDisablesHybrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Method = MethodStopAndCopy
	h := newHarness(t, cfg, 2)
	if h.mgr.Config().HybridCopy {
		t.Error("hybrid copy left on under SAC")
	}
}

// TestPagesCopiedMetricMatchesStat runs every page-copy path of a
// checkpoint round with metrics on — COW faults, dirty-DRAM copies and a
// demotion that copies under copy-on-write, and stop-and-copy rounds — and
// requires the checkpoint.pages_copied counter to end equal to
// Stats.PagesCopied.
func TestPagesCopiedMetricMatchesStat(t *testing.T) {
	for _, method := range []CopyMethod{MethodCOW, MethodStopAndCopy} {
		t.Run(method.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Method = method
			cfg.HotThreshold = 1
			cfg.DemoteAfter = 1
			h := newHarness(t, cfg, 2)
			reg := obs.NewRegistry()
			h.mgr.SetObserver(&obs.Observer{Metrics: reg})
			_, pmo, _ := h.buildProc("app", 4)
			writeAll := func(v byte) {
				for i := uint64(0); i < 4; i++ {
					h.writePage(t, pmo, i, []byte{v})
				}
			}
			var sum Report
			round := func() {
				rep := h.checkpoint()
				sum.PagesStopCopied += rep.PagesStopCopied
				sum.DirtyDRAMCopied += rep.DirtyDRAMCopied
			}
			writeAll(1)
			round()
			writeAll(2) // COW faults; the pages become hot
			round()     // migrated to DRAM
			writeAll(3)
			round() // dirty-DRAM copies into slot 0
			copied := h.mgr.Stats.PagesCopied
			rep := h.checkpoint() // clean for one round: demoted, copied into slot 1

			switch method {
			case MethodCOW:
				if h.mgr.Stats.COWFaults == 0 || sum.DirtyDRAMCopied == 0 {
					t.Fatalf("COW faults %d, dirty-DRAM copies %d: want both", h.mgr.Stats.COWFaults, sum.DirtyDRAMCopied)
				}
				if rep.Demoted == 0 || h.mgr.Stats.PagesCopied == copied {
					t.Fatalf("demoted %d pages, copying %d: want both", rep.Demoted, h.mgr.Stats.PagesCopied-copied)
				}
			case MethodStopAndCopy:
				if sum.PagesStopCopied == 0 {
					t.Fatal("nothing stop-and-copied")
				}
			}
			if got := reg.Counter("checkpoint.pages_copied").Value(); got != h.mgr.Stats.PagesCopied {
				t.Errorf("checkpoint.pages_copied = %d, Stats.PagesCopied = %d", got, h.mgr.Stats.PagesCopied)
			}
		})
	}
}
