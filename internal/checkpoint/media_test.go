package checkpoint

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

// hotPageTwoBackups is hotPageWithTwoBackups with a configurable replica
// count, so tests can exercise the checksum machinery with and without the
// §8 replication redundancy underneath it.
func hotPageTwoBackups(t *testing.T, cfg Config) (*harness, *caps.PMO, *caps.CkptPage) {
	t.Helper()
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

func newestSlot(cp *caps.CkptPage) int {
	if cp.Ver[1] > cp.Ver[0] {
		return 1
	}
	return 0
}

func findPMO(tree *caps.Tree) *caps.PMO {
	var pmo *caps.PMO
	tree.Walk(func(o caps.Object) {
		if p, ok := o.(*caps.PMO); ok {
			pmo = p
		}
	})
	return pmo
}

// TestChecksumDetectsSilentRotWithoutReplicas proves the per-page checksums
// carry their own weight: with zero replicas configured, silent bit-rot on
// the newest backup is still detected at restore time, and the page degrades
// to the older intact version with a manifest entry instead of handing back
// scrambled bytes.
func TestChecksumDetectsSilentRotWithoutReplicas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 0
	h, _, cp := hotPageTwoBackups(t, cfg)
	h.mem.InjectRot(cp.Page[newestSlot(cp)], 0, mem.PageSize, 42)

	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) != "DDDDDD" {
		t.Errorf("restored = %q, want older intact version %q", got, "DDDDDD")
	}
	if h.mgr.Stats.DegradedRestores != 1 {
		t.Errorf("DegradedRestores = %d, want 1", h.mgr.Stats.DegradedRestores)
	}
	if man := h.mgr.Manifest(); man == nil || len(man.Degraded) != 1 {
		t.Errorf("manifest = %+v, want one degraded entry", man)
	}
}

// TestNoChecksumBaselineSilentlyCorrupts is the conviction test for the
// ablation baseline: with checksums disabled (and no replicas), the same
// bit-rot sails through restore undetected — the manifest claims a clean
// restore while the restored bytes are garbage. This is exactly the failure
// mode the always-on checksums exist to rule out.
func TestNoChecksumBaselineSilentlyCorrupts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 0
	cfg.DisableChecksums = true
	h, _, cp := hotPageTwoBackups(t, cfg)
	h.mem.InjectRot(cp.Page[newestSlot(cp)], 0, mem.PageSize, 42)

	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) == "EEEEEE" {
		t.Fatal("rot did not corrupt the backup; baseline test is vacuous")
	}
	if man := h.mgr.Manifest(); !man.Clean() {
		t.Errorf("baseline manifest = %+v, want (wrongly) clean", man)
	}
	if h.mgr.Stats.DegradedRestores != 0 || h.mgr.Stats.LostPages != 0 {
		t.Error("baseline unexpectedly detected the corruption")
	}
}

// TestPoisonDetectedEvenWithoutChecksums verifies the device-level poison
// path is independent of checksums: a machine-check-style poisoned backup is
// caught by CheckRead alone, so even the ablation baseline degrades
// explicitly rather than consuming poisoned lines.
func TestPoisonDetectedEvenWithoutChecksums(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 0
	cfg.DisableChecksums = true
	h, _, cp := hotPageTwoBackups(t, cfg)
	h.mem.InjectPoison(cp.Page[newestSlot(cp)], 0, mem.LineSize, 7)

	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) != "DDDDDD" {
		t.Errorf("restored = %q, want older intact version %q", got, "DDDDDD")
	}
	if h.mgr.Stats.DegradedRestores != 1 {
		t.Errorf("DegradedRestores = %d, want 1", h.mgr.Stats.DegradedRestores)
	}
}

// TestScrubHealthyWorldReportsNothing: a scrub over an intact persistent
// world must be a pure read — no repairs, no quarantines, no unrepairables.
func TestScrubHealthyWorldReportsNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h, _, _ := hotPageTwoBackups(t, cfg)
	sr := h.mgr.Scrub(h.lane())
	if sr.PagesChecked == 0 || sr.RecordsChecked == 0 {
		t.Errorf("scrub checked nothing: %+v", sr)
	}
	if sr.Repaired != 0 || sr.Quarantined != 0 || sr.Unrepairable != 0 || sr.MetaRepairs != 0 {
		t.Errorf("scrub of healthy world reported damage: %+v", sr)
	}
}

// TestScrubRepairsRottenBackupFromReplica: scrub finds a rotten chosen
// restore source, heals it in place from its intact replica, and a later
// crash+restore is perfectly clean.
func TestScrubRepairsRottenBackupFromReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h, _, cp := hotPageTwoBackups(t, cfg)
	h.mem.InjectRot(cp.Page[newestSlot(cp)], 0, mem.PageSize, 9)

	sr := h.mgr.Scrub(h.lane())
	if sr.Repaired != 1 || sr.Unrepairable != 0 {
		t.Fatalf("scrub report = %+v, want exactly one repair", sr)
	}
	if h.mgr.Stats.ReplicaRepair == 0 {
		t.Error("repair not attributed to the replica")
	}
	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) != "EEEEEE" {
		t.Errorf("restored = %q after scrub repair, want %q", got, "EEEEEE")
	}
	if !h.mgr.Manifest().Clean() || h.mgr.Stats.DegradedRestores != 0 {
		t.Error("restore after scrub repair was not clean")
	}
}

// TestScrubRebuildsFromCleanRuntimeCopy: when both the chosen backup and its
// replica are gone, scrub can still rebuild from the clean DRAM-cached
// runtime page — the one remaining copy that provably holds the committed
// content.
func TestScrubRebuildsFromCleanRuntimeCopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h, _, cp := hotPageTwoBackups(t, cfg)
	corruptWithReplica(t, h, cp.Page[newestSlot(cp)])

	sr := h.mgr.Scrub(h.lane())
	if sr.Repaired != 1 || sr.Unrepairable != 0 {
		t.Fatalf("scrub report = %+v, want one clean-runtime rebuild", sr)
	}
	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) != "EEEEEE" {
		t.Errorf("restored = %q after rebuild, want %q", got, "EEEEEE")
	}
	if !h.mgr.Manifest().Clean() {
		t.Errorf("manifest = %+v, want clean", h.mgr.Manifest())
	}
}

// TestScrubQuarantinesCorruptFallback: a corrupt *older* slot whose chosen
// copy is intact is retired outright — the restore outcome is unchanged and
// the dead redundancy no longer masquerades as a fallback.
func TestScrubQuarantinesCorruptFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	h, _, cp := hotPageTwoBackups(t, cfg)
	older := 1 - newestSlot(cp)
	corruptWithReplica(t, h, cp.Page[older])

	sr := h.mgr.Scrub(h.lane())
	if sr.Quarantined != 1 || sr.Repaired != 0 || sr.Unrepairable != 0 {
		t.Fatalf("scrub report = %+v, want exactly one quarantine", sr)
	}
	if cp.Ver[older] != 0 || !cp.Page[older].IsNil() {
		t.Error("quarantined slot not cleared")
	}
	h.crash()
	tree := h.restore(t)
	if got := h.readPage(t, findPMO(tree), 0, 6); string(got) != "EEEEEE" {
		t.Errorf("restored = %q, want %q", got, "EEEEEE")
	}
}

// TestCommitRecordHealsFromMirror poisons the primary commit record and
// checks the fail-closed read path recovers the version from the mirror,
// repairs the primary in place, and counts the event.
func TestCommitRecordHealsFromMirror(t *testing.T) {
	h, _, _ := hotPageTwoBackups(t, DefaultConfig())
	want := h.mgr.CommittedVersion()
	h.mem.InjectPoison(commitWordPage(), 0, commitRecSize, 3)

	if got := h.mgr.DurableVersion(); got != want {
		t.Fatalf("DurableVersion = %d with poisoned primary, want %d", got, want)
	}
	if h.mgr.Stats.MetaRepairs == 0 {
		t.Error("mirror fallback not counted as a meta repair")
	}
	// The repair must be durable: a second read needs no further repair.
	before := h.mgr.Stats.MetaRepairs
	if got := h.mgr.DurableVersion(); got != want || h.mgr.Stats.MetaRepairs != before {
		t.Error("primary repair was not durable")
	}
}

// TestScrubResyncsCommitMirror rots the mirror copy of the commit record;
// scrub detects the bad check word and rewrites the mirror from the primary,
// restoring the dual-copy redundancy before it is ever needed.
func TestScrubResyncsCommitMirror(t *testing.T) {
	h, _, _ := hotPageTwoBackups(t, DefaultConfig())
	h.mem.InjectRot(commitMirrorPage(), 0, commitRecSize, 5)

	sr := h.mgr.Scrub(h.lane())
	if sr.MetaRepairs == 0 {
		t.Fatalf("scrub report = %+v, want a meta repair", sr)
	}
	// Redundancy is back: kill the primary, the mirror must carry it.
	want := h.mgr.CommittedVersion()
	h.mem.InjectPoison(commitWordPage(), 0, commitRecSize, 3)
	if got := h.mgr.DurableVersion(); got != want {
		t.Errorf("DurableVersion = %d after mirror resync, want %d", got, want)
	}
}

// TestRecordDigestCorruptionDegradesObject flips a field inside a committed
// thread snapshot record. The record digest must catch it at restore time
// and fall back to the object's older committed snapshot — a stale-but-true
// thread context, explicitly counted, never a fabricated one.
func TestRecordDigestCorruptionDegradesObject(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	_, _, th := h.buildProc("app", 2)
	th.Touch(func(c *caps.Context) { c.R[0] = 1 })
	h.checkpoint()
	th.Touch(func(c *caps.Context) { c.R[0] = 2 })
	h.checkpoint()

	r := th.ORoot()
	slot := -1
	for i := range r.Backup {
		if r.Ver[i] == h.mgr.CommittedVersion() {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("no snapshot at the committed version")
	}
	// Silent in-record corruption: the bytes change, the digest does not.
	r.Backup[slot].(*caps.ThreadSnap).Ctx.R[0] = 999

	// Scrub sees it but cannot rebuild a record between checkpoints.
	if sr := h.mgr.Scrub(h.lane()); sr.Unrepairable == 0 {
		t.Errorf("scrub report = %+v, want the record flagged unrepairable", sr)
	}

	h.crash()
	tree := h.restore(t)
	var th2 *caps.Thread
	tree.Walk(func(o caps.Object) {
		if v, ok := o.(*caps.Thread); ok {
			th2 = v
		}
	})
	if th2.Ctx.R[0] != 1 {
		t.Errorf("R0 = %d, want older committed value 1 (never the corrupt 999)", th2.Ctx.R[0])
	}
	if h.mgr.Stats.DegradedObjects != 1 {
		t.Errorf("DegradedObjects = %d, want 1", h.mgr.Stats.DegradedObjects)
	}
}
