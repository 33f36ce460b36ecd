package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

// FullCapture serializes the whole backup tree at the current committed
// version: the in-place capture run against an empty image.
func FullCapture(m *Manager) *ReplImage {
	img := &ReplImage{}
	m.CaptureReplDelta(img, true)
	return img
}

// ReplSourcePage returns the NVM frame a capture reads for page idx of PMO
// objID at the committed version, with that copy's version; the nil page
// when it reads none.
func ReplSourcePage(m *Manager, objID, idx uint64) (mem.PageID, uint64) {
	r := m.lookupRoot(objID)
	if r == nil {
		return mem.NilPage, 0
	}
	snap, _ := r.LatestCommitted(m.committed)
	ps, ok := snap.(*caps.PMOSnap)
	if !ok {
		return mem.NilPage, 0
	}
	cp, ok := ps.Pages.Get(idx)
	if !ok {
		return mem.NilPage, 0
	}
	if src := RestoreSource(cp, m.committed); src >= 0 {
		return cp.Page[src], cp.Ver[src]
	}
	return mem.NilPage, 0
}

// MoveSwapSlot moves the swapped-out entry of page idx of PMO objID to a
// fresh swap slot holding the same bytes, as a swap-in and an eviction to
// another slot would, and reports whether the entry was swapped out.
func MoveSwapSlot(m *Manager, objID, idx uint64) bool {
	r := m.lookupRoot(objID)
	if r == nil {
		return false
	}
	ps, ok := r.Backup[0].(*caps.PMOSnap)
	if !ok {
		return false
	}
	cp, ok := ps.Pages.Get(idx)
	if !ok || cp.Swap == 0 {
		return false
	}
	slot := m.swap.allocSlot()
	m.swap.data[slot] = m.swap.data[cp.Swap-1]
	m.releaseSwapSlot(cp)
	cp.Swap = slot + 1
	return true
}

// DiffImages is the reference delta: it computes the delta turning prev
// into cur from two full captures. prev == nil (or an empty image) yields a
// Full delta. Puts and Dels are in deterministic key order.
// CaptureReplDelta must produce exactly this delta from a retained image.
func DiffImages(prev, cur *ReplImage) *Delta {
	d := &Delta{Version: cur.Version, NextID: cur.NextID, RootID: cur.RootID}
	if prev == nil || len(prev.Entries) == 0 {
		d.Full = true
	} else {
		d.From = prev.Version
	}
	for k, v := range cur.Entries {
		if !d.Full {
			if old, ok := prev.Entries[k]; ok && bytes.Equal(old, v) {
				continue
			}
		}
		d.Puts = append(d.Puts, ReplRecord{Key: k, Data: v})
	}
	if !d.Full {
		for k := range prev.Entries {
			if _, ok := cur.Entries[k]; !ok {
				d.Dels = append(d.Dels, k)
			}
		}
	}
	slices.SortFunc(d.Puts, func(a, b ReplRecord) int { return replKeyCompare(a.Key, b.Key) })
	slices.SortFunc(d.Dels, replKeyCompare)
	return d
}

// EncodeDelta serializes d in the layout PayloadBytes sizes: the byte-exact
// snapshot the delta tests compare captured deltas by.
func EncodeDelta(d *Delta) []byte {
	buf := make([]byte, 0, d.PayloadBytes())
	var b8 [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		buf = append(buf, b8[:]...)
	}
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		buf = append(buf, b8[:4]...)
	}
	wkey := func(k ReplKey) {
		w64(k.ObjID)
		w64(k.Page)
		buf = append(buf, k.Kind)
	}
	w64(d.Version)
	w64(d.From)
	w64(d.NextID)
	w64(d.RootID)
	if d.Full {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	w32(uint32(len(d.Puts)))
	w32(uint32(len(d.Dels)))
	for _, p := range d.Puts {
		wkey(p.Key)
		w32(uint32(len(p.Data)))
		buf = append(buf, p.Data...)
	}
	for _, k := range d.Dels {
		wkey(k)
	}
	return buf
}

// buildReplicaWorld populates a harness tree with one of every object kind
// so the replication codec's every arm is exercised.
func buildReplicaWorld(t *testing.T, h *harness) *caps.PMO {
	t.Helper()
	g := h.tree.NewCapGroup(h.tree.Root, "proc")
	vs := h.tree.NewVMSpace(g)
	pmo := h.tree.NewPMO(g, 8, caps.PMODefault)
	_ = vs.Map(&caps.VMRegion{VABase: 0x10000, NumPages: 8, PMO: pmo, Perm: caps.RightRead | caps.RightWrite})
	th := h.tree.NewThread(g)
	th.Touch(func(c *caps.Context) { c.PC = 0x1000; c.SP = 0x2000; c.R[3] = 77 })
	th2 := h.tree.NewThread(g)
	h.tree.NewIPCConn(g, th, th2)
	h.tree.NewNotification(g)
	h.tree.NewIRQNotification(g, 5)
	for i := uint64(0); i < 3; i++ {
		h.writePage(t, pmo, i, bytes.Repeat([]byte{byte(i + 1)}, 64))
	}
	return pmo
}

func TestCaptureDiffFoldRoundTrip(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	pmo := buildReplicaWorld(t, h)
	h.checkpoint()
	img1 := FullCapture(h.mgr)
	if img1.Version != 1 || img1.RootID == 0 || len(img1.Entries) == 0 {
		t.Fatalf("capture: v%d root %d, %d entries", img1.Version, img1.RootID, len(img1.Entries))
	}
	// Dirty one existing page and add a fresh one, then round 2.
	h.writePage(t, pmo, 0, []byte("changed"))
	h.writePage(t, pmo, 5, []byte("new page"))
	h.checkpoint()
	img2 := FullCapture(h.mgr)

	full := DiffImages(nil, img2)
	if !full.Full || len(full.Dels) != 0 || len(full.Puts) != len(img2.Entries) {
		t.Fatalf("full diff: full=%v %d puts %d dels", full.Full, len(full.Puts), len(full.Dels))
	}
	inc := DiffImages(img1, img2)
	if inc.Full || inc.From != img1.Version || inc.Version != img2.Version {
		t.Fatalf("incremental diff header: %+v", inc)
	}
	if len(inc.Puts) == 0 || len(inc.Puts) >= len(img2.Entries) {
		t.Fatalf("incremental diff shipped %d of %d entries — not incremental", len(inc.Puts), len(img2.Entries))
	}
	folded := FoldDelta(cloneImage(img1), inc)
	if !reflect.DeepEqual(folded.Entries, img2.Entries) || folded.Version != img2.Version {
		t.Fatalf("fold(img1, diff(img1,img2)) != img2")
	}
	if enc := EncodeDelta(inc); len(enc) != inc.PayloadBytes() {
		t.Fatalf("PayloadBytes %d, encoded %d", inc.PayloadBytes(), len(enc))
	}
}

func TestDiffTombstones(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	buildReplicaWorld(t, h)
	g, pmo, _ := h.buildProc("exiting", 4)
	h.writePage(t, pmo, 2, []byte("gone"))
	h.checkpoint()
	img1 := FullCapture(h.mgr)
	// A process exit makes its records and its page's content key vanish
	// from the next image.
	h.exitProc(g, pmo)
	h.checkpoint()
	img2 := FullCapture(h.mgr)
	inc := DiffImages(img1, img2)
	if !slices.Contains(inc.Dels, ReplKey{ObjID: pmo.ID(), Page: 2, Kind: ReplPage}) {
		t.Fatalf("exited process's page produced no tombstone: %v", inc.Dels)
	}
	folded := FoldDelta(cloneImage(img1), inc)
	if !reflect.DeepEqual(folded.Entries, img2.Entries) {
		t.Fatalf("fold with tombstones diverged")
	}
}

func cloneImage(img *ReplImage) *ReplImage {
	out := &ReplImage{Version: img.Version, NextID: img.NextID, RootID: img.RootID,
		Entries: make(map[ReplKey][]byte, len(img.Entries))}
	for k, v := range img.Entries {
		out.Entries[k] = v
	}
	return out
}

func TestInstallImageGuards(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	buildReplicaWorld(t, h)
	h.checkpoint()
	img := FullCapture(h.mgr)
	// Non-fresh manager: the primary itself refuses an install.
	if err := h.mgr.InstallImage(h.lane(), img); err == nil {
		t.Fatalf("InstallImage on a non-fresh manager must fail")
	}
	// Empty image.
	h2 := newHarness(t, DefaultConfig(), 1)
	if err := h2.mgr.InstallImage(h2.lane(), &ReplImage{}); err == nil {
		t.Fatalf("InstallImage with an empty image must fail")
	}
	// Dangling object reference: drop every non-root object record.
	h3 := newHarness(t, DefaultConfig(), 1)
	bad := cloneImage(img)
	for k := range bad.Entries {
		if k.Kind == ReplObject && k.ObjID != img.RootID {
			delete(bad.Entries, k)
		}
	}
	if err := h3.mgr.InstallImage(h3.lane(), bad); err == nil {
		t.Fatalf("InstallImage with dangling references must fail")
	}
	// Missing page content.
	h4 := newHarness(t, DefaultConfig(), 1)
	bad2 := cloneImage(img)
	for k := range bad2.Entries {
		if k.Kind == ReplPage {
			delete(bad2.Entries, k)
		}
	}
	if err := h4.mgr.InstallImage(h4.lane(), bad2); err == nil {
		t.Fatalf("InstallImage with missing page content must fail")
	}
}

func TestInstallImageRoundTrip(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	buildReplicaWorld(t, h)
	h.checkpoint()
	img := FullCapture(h.mgr)

	h2 := newHarness(t, DefaultConfig(), 1)
	if err := h2.mgr.InstallImage(h2.lane(), img); err != nil {
		t.Fatalf("install: %v", err)
	}
	if h2.mgr.CommittedVersion() != img.Version {
		t.Fatalf("installed manager committed v%d, want v%d", h2.mgr.CommittedVersion(), img.Version)
	}
	// The installed backup tree captures back to the identical image.
	img2 := FullCapture(h2.mgr)
	if !reflect.DeepEqual(img.Entries, img2.Entries) {
		t.Fatalf("capture(install(img)) != img (%d vs %d entries)", len(img.Entries), len(img2.Entries))
	}
	// And it restores: the ordinary local recovery path accepts the
	// replicated state as its own.
	tree, _, err := h2.mgr.Restore(h2.lane())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	found := false
	var pmo *caps.PMO
	tree.Walk(func(o caps.Object) {
		if th, ok := o.(*caps.Thread); ok && th.Ctx.PC == 0x1000 && th.Ctx.R[3] == 77 {
			found = true
		}
		if p, ok := o.(*caps.PMO); ok && p.Type == caps.PMODefault {
			pmo = p
		}
	})
	if !found {
		t.Fatalf("restored standby tree lost the thread context")
	}
	if pmo == nil {
		t.Fatalf("restored tree has no PMO")
	}
	s := pmo.Lookup(1)
	if s == nil || s.Page.IsNil() {
		t.Fatalf("restored PMO page 1 missing")
	}
	got := make([]byte, 8)
	h2.mem.ReadAt(s.Page, 0, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{2}, 8)) {
		t.Fatalf("restored page content %x", got)
	}
}
