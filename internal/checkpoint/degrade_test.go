package checkpoint

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

// hotPageWithTwoBackups drives one page through hot-page migration and two
// dirty rounds so its CkptPage retains two committed backup versions, both
// replicated: slot Ver=N holds "EEEEEE", slot Ver=N-1 holds "DDDDDD", and the
// runtime copy is DRAM-cached (it dies with the crash).
func hotPageWithTwoBackups(t *testing.T) (*harness, *caps.PMO, *caps.CkptPage) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.HotThreshold = 2
	cfg.DemoteAfter = 100
	h := newHarness(t, cfg, 2)
	_, pmo, _ := h.buildProc("app", 4)
	for _, s := range []string{"AAAAAA", "BBBBBB", "CCCCCC", "DDDDDD", "EEEEEE"} {
		h.writePage(t, pmo, 0, []byte(s))
		h.checkpoint()
	}
	cp, _ := pmo.ORoot().Backup[0].(*caps.PMOSnap).Pages.Get(0)
	if cp.Ver[0] == 0 || cp.Ver[1] == 0 || cp.Ver[0] == cp.Ver[1] {
		t.Fatalf("setup did not retain two committed versions: %d/%d", cp.Ver[0], cp.Ver[1])
	}
	return h, pmo, cp
}

// corruptWithReplica smashes a backup page AND its replica so that
// verifySource can neither trust nor repair it.
func corruptWithReplica(t *testing.T, h *harness, p mem.PageID) {
	t.Helper()
	rep := h.mgr.integrity[p.Frame].replica
	if rep == 0 {
		t.Fatalf("page %v has no replica; corruption would be undetectable", p)
	}
	h.mem.WriteRaw(p, 0, []byte("CORRUPTED!"))
	h.mem.WriteRaw(nvmFrame(rep), 0, []byte("ALSO BAD!!"))
}

// TestDegradedRestoreFallsBackToOlderVersion corrupts the newest backup of a
// DRAM-cached page beyond replica repair and checks that restore degrades
// gracefully: the page comes back one round stale instead of the whole
// restore failing, and the event is counted.
func TestDegradedRestoreFallsBackToOlderVersion(t *testing.T) {
	h, _, cp := hotPageWithTwoBackups(t)
	newest := 0
	if cp.Ver[1] > cp.Ver[0] {
		newest = 1
	}
	corruptWithReplica(t, h, cp.Page[newest])

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	if got := h.readPage(t, pmo2, 0, 6); string(got) != "DDDDDD" {
		t.Errorf("restored = %q, want the older intact version %q", got, "DDDDDD")
	}
	if h.mgr.Stats.DegradedRestores != 1 {
		t.Errorf("DegradedRestores = %d, want 1", h.mgr.Stats.DegradedRestores)
	}
	man := h.mgr.Manifest()
	if man == nil || len(man.Degraded) != 1 || len(man.Lost) != 0 {
		t.Fatalf("manifest = %+v, want exactly one degraded entry", man)
	}
	if man.Degraded[0].GotVersion >= man.Degraded[0].WantVersion {
		t.Errorf("degraded entry not older than target: %+v", man.Degraded[0])
	}
}

// TestLostPageRestoredAsZerosWithManifest corrupts both retained backup
// versions (and both replicas): with nothing trustworthy left, the restore
// must still complete — the page comes back as deterministic zeros and is
// named in the restore manifest. It must never hand back garbage and never
// abort the whole-system restore over one dead page.
func TestLostPageRestoredAsZerosWithManifest(t *testing.T) {
	h, pmo, cp := hotPageWithTwoBackups(t)
	corruptWithReplica(t, h, cp.Page[0])
	corruptWithReplica(t, h, cp.Page[1])

	h.crash()
	tree := h.restore(t)
	var pmo2 *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo2 = p
		}
	})
	for _, b := range h.readPage(t, pmo2, 0, 32) {
		if b != 0 {
			t.Fatal("lost page restored with non-zero (garbage) content")
		}
	}
	man := h.mgr.Manifest()
	if man == nil || len(man.Lost) != 1 || man.Clean() {
		t.Fatalf("manifest = %+v, want exactly one lost entry", man)
	}
	if man.Lost[0].PMO != pmo.ID() || man.Lost[0].Index != 0 {
		t.Errorf("lost entry = %+v, want PMO %d page 0", man.Lost[0], pmo.ID())
	}
	if h.mgr.Stats.LostPages != 1 {
		t.Errorf("LostPages = %d, want 1", h.mgr.Stats.LostPages)
	}
	if h.mgr.Stats.DegradedRestores != 0 {
		t.Errorf("lost page double-counted as degraded: %d", h.mgr.Stats.DegradedRestores)
	}
	// The replacement zero page must be a durable rule-2 source: a second
	// crash+restore reproduces the zeros without a fresh manifest entry.
	h.crash()
	h.restore(t)
	if got := h.mgr.Manifest(); !got.Clean() {
		t.Errorf("second restore not clean: %+v", got)
	}
}
