package checkpoint_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"treesls/internal/apps/kvstore"
	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
)

// TestReplDeltaMatchesFullDiff pins the replicator's in-place capture to
// the reference: on every round, across {eADR, ADR} × {COW, stop-and-copy,
// hybrid} × 2 seeds, the shipped delta is byte-for-byte the DiffImages of
// two full captures. The schedule covers full syncs, the first round after
// a crash and restore, objects becoming unreachable (Dels), pages swapped
// out, and silent rot on a restore-source page whose version stays the same
// (the case a (frame, version) skip would miss). It runs three full-sync
// generations before the crash, so the replicator's image refills buffers
// the dropped generations released, and after every round every retained
// ledger delta must still encode to the bytes it shipped: the image never
// writes into a slice a retained delta shares. A second image captured
// only every other round must match the diff of its two full captures
// too: skipping a round lets a snapshot slot come back as the newest one
// under a new version, which a stamp of the slot alone would miss. Some
// rounds change a PMO's skeleton record and no page entry's (frame,
// generation) stamp: a swapped page moves to another slot, a page entry
// loses every restore source and a page is added past the highest index.
// After every round a standby built from the folded deltas
// must restore to the primary's backup digest.
func TestReplDeltaMatchesFullDiff(t *testing.T) {
	type variant struct {
		name   string
		method checkpoint.CopyMethod
		hybrid bool
	}
	for _, pm := range []struct {
		name string
		mode mem.PersistMode
	}{{"eadr", mem.ModeEADR}, {"adr", mem.ModeADR}} {
		for _, v := range []variant{
			{"cow", checkpoint.MethodCOW, false},
			{"stopcopy", checkpoint.MethodStopAndCopy, false},
			{"hybrid", checkpoint.MethodCOW, true},
		} {
			for _, seed := range []uint64{1, 2} {
				pm, v, seed := pm, v, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", pm.name, v.name, seed), func(t *testing.T) {
					cfg := kernel.DefaultConfig()
					cfg.Cores = 2
					cfg.CheckpointEvery = 0
					cfg.Seed = seed
					cfg.Mem.Persist = pm.mode
					cfg.Mem.CrashSeed = seed
					cfg.Checkpoint.Method = v.method
					cfg.Checkpoint.HybridCopy = v.hybrid
					swapped := runReplDeltaSchedule(t, cfg, seed)
					// Stop-and-copy pages stay writable, so none is ever cold.
					if swapped == 0 && v.method == checkpoint.MethodCOW {
						t.Fatalf("no page was swapped out; the swap round tested nothing")
					}
				})
			}
		}
	}
}

// runReplDeltaSchedule runs the schedule on one machine configuration and
// returns how many pages it swapped out.
func runReplDeltaSchedule(t *testing.T, cfg kernel.Config, seed uint64) int {
	const fullSyncEvery = 4
	m := kernel.New(cfg)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 2, HeapPages: 64, Buckets: 32,
	})
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	rep := repl.Attach(m, nil, repl.Config{FullSyncEvery: fullSyncEvery})
	rng := rand.New(rand.NewSource(int64(seed)))

	var prev *checkpoint.ReplImage // full capture at the previous round
	shipped := map[*checkpoint.Delta][]byte{}
	// shippedData holds the first byte of every page a delta put, so a
	// changed page shipped in a buffer an earlier delta shipped counts as
	// reused (and the map keeps every such buffer from being freed and
	// handed out again by the Go allocator).
	shippedData := map[*byte]bool{}
	reused := 0
	// every is a second image, captured only on even versions; prevEvery
	// is the full capture at its last capture.
	every := &checkpoint.ReplImage{}
	var prevEvery *checkpoint.ReplImage
	// folded is the image a standby folds from the shipped deltas; it
	// keeps copies, since the replicator recycles page buffers.
	var folded *checkpoint.ReplImage
	// round takes a checkpoint, checks its delta against the reference and
	// returns the delta.
	round := func(what string, writes int) *checkpoint.Delta {
		t.Helper()
		for i := 0; i < writes; i++ {
			k := rng.Intn(64)
			val := bytes.Repeat([]byte{byte(rng.Intn(256))}, 8+rng.Intn(200))
			if _, _, err := srv.Set(i%2, []byte(fmt.Sprintf("key%02d", k)), val); err != nil {
				t.Fatalf("%s: set: %v", what, err)
			}
		}
		// A register write gives a server thread's record new content in
		// every round, so its two snapshot slots alternate as the newest.
		kv := m.Process("kv")
		if _, err := m.Run(kv, kv.Thread(0), func(e *kernel.Env) error {
			e.Touch(func(c *caps.Context) { c.R[0]++ })
			return nil
		}); err != nil {
			t.Fatalf("%s: touch: %v", what, err)
		}
		m.TakeCheckpoint()
		led := rep.Ledger()
		e := led[len(led)-1]
		if e.Version != m.Ckpt.CommittedVersion() {
			t.Fatalf("%s: newest ledger entry is v%d, committed v%d", what, e.Version, m.Ckpt.CommittedVersion())
		}
		cur := checkpoint.FullCapture(m.Ckpt)
		base := prev
		if e.Full {
			base = nil
		}
		got := checkpoint.EncodeDelta(e.Delta)
		if want := checkpoint.EncodeDelta(checkpoint.DiffImages(base, cur)); !bytes.Equal(got, want) {
			t.Fatalf("%s (v%d, full=%v): delta encodes to %d bytes, reference diff to %d; they differ",
				what, e.Version, e.Full, len(got), len(want))
		}
		if len(got) != e.Delta.PayloadBytes() || len(got) != e.Bytes {
			t.Fatalf("%s: encoded %d bytes, PayloadBytes %d, ledger Bytes %d",
				what, len(got), e.Delta.PayloadBytes(), e.Bytes)
		}
		shipped[e.Delta] = got
		prev = cur
		folded = checkpoint.FoldDelta(folded, cloneDelta(e.Delta))
		checkStandby(t, what, m, folded)
		for _, p := range e.Delta.Puts {
			if p.Key.Kind == checkpoint.ReplObject || len(p.Data) == 0 {
				continue
			}
			if !e.Full && shippedData[&p.Data[0]] {
				reused++
			}
			shippedData[&p.Data[0]] = true
		}
		for _, le := range rep.Ledger() {
			want, ok := shipped[le.Delta]
			if !ok {
				t.Fatalf("%s: ledger v%d holds a delta no round shipped", what, le.Version)
			}
			if !bytes.Equal(checkpoint.EncodeDelta(le.Delta), want) {
				t.Fatalf("%s: retained delta v%d changed after it was shipped", what, le.Version)
			}
		}
		if e.Version%2 == 0 {
			d := m.Ckpt.CaptureReplDelta(every, false)
			if want := checkpoint.EncodeDelta(checkpoint.DiffImages(prevEvery, cur)); !bytes.Equal(checkpoint.EncodeDelta(d), want) {
				t.Fatalf("%s (v%d): the every-other-round image's delta differs from the reference diff", what, e.Version)
			}
			prevEvery = cur
		}
		return e.Delta
	}
	// incremental takes plain rounds until the next one is not a periodic
	// full sync, so a targeted round's delta is incremental.
	incremental := func() {
		for (m.Ckpt.CommittedVersion()+1)%fullSyncEvery == 0 {
			round("pad", 4)
		}
	}

	if d := round("first", 20); !d.Full {
		t.Fatalf("first round was not a full sync")
	}
	fulls := 0
	for m.Ckpt.CommittedVersion() <= 3*fullSyncEvery {
		if d := round("steady", 4+rng.Intn(8)); d.Full {
			fulls++
		}
	}
	if fulls < 3 || reused == 0 {
		t.Fatalf("%d steady rounds with FullSyncEvery=%d took %d periodic full syncs and reused %d page buffers, want at least 3 and 1",
			m.Ckpt.CommittedVersion()-1, fullSyncEvery, fulls, reused)
	}

	// An exiting process leaves objects unreachable: their keys go as Dels.
	incremental()
	p, err := m.NewProcess("tmp", 1)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	if _, _, err := p.Mmap(2, caps.PMODefault); err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	round("spawn", 2)
	incremental()
	if err := m.ExitProcess("tmp"); err != nil {
		t.Fatalf("ExitProcess: %v", err)
	}
	if d := round("exit", 2); d.Full || len(d.Dels) == 0 {
		t.Fatalf("exit round: full=%v with %d dels, want an incremental delta with dels", d.Full, len(d.Dels))
	}

	// Swapped-out pages change key kind: ReplPage goes, ReplSwap comes.
	incremental()
	swapped, err := m.EvictColdPages(8)
	if err != nil {
		t.Fatalf("evict: %v", err)
	}
	d := round("swap", 0)
	if swapped > 0 && !hasKind(d, checkpoint.ReplSwap) {
		t.Fatalf("swap round: %d pages evicted but the delta puts no swap entry", swapped)
	}

	// Skeleton transitions: only the PMO's record changes. First a
	// swapped page moves to another swap slot and stays swapped.
	incremental()
	if k, ok := firstKey(prev, checkpoint.ReplSwap); ok {
		if !checkpoint.MoveSwapSlot(m.Ckpt, k.ObjID, k.Page) {
			t.Fatalf("swap-slot: page entry %v is not swapped out", k)
		}
		if d := round("swap-slot", 0); !putsKey(d, recordKey(k.ObjID)) {
			t.Fatalf("swap-slot round: the moved page's PMO record is not in the delta")
		}
	} else if swapped > 0 {
		t.Fatalf("%d pages evicted but the image holds no swap entry", swapped)
	}
	// Then a PMO of its own adds a page past its highest index and has
	// one lose every restore source.
	sp, err := m.NewProcess("skel", 1)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	skelVA, skel, err := sp.Mmap(8, caps.PMODefault)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	writeSkel := func(idx uint64) {
		if _, err := m.Run(sp, sp.MainThread(), func(e *kernel.Env) error {
			return e.WriteU64(skelVA+idx*mem.PageSize, idx+1)
		}); err != nil {
			t.Fatalf("skel write: %v", err)
		}
	}
	for idx := uint64(0); idx < 4; idx++ {
		writeSkel(idx)
	}
	round("skel-spawn", 0)
	skelRec := recordKey(skel.ID())
	incremental()
	writeSkel(6)
	if d := round("skel-grow", 0); !putsKey(d, skelRec) {
		t.Fatalf("skel-grow round: the PMO record is not in the delta")
	}
	incremental()
	cp, ok := skel.ORoot().Backup[0].(*caps.PMOSnap).Pages.Get(2)
	if !ok {
		t.Fatalf("no-source: page 2 has no checkpointed entry")
	}
	cp.Page, cp.Ver = [2]mem.PageID{}, [2]uint64{}
	if d := round("no-source", 0); !putsKey(d, skelRec) || !delsKey(d, pageKey(skel.ID(), 2)) {
		t.Fatalf("no-source round: want the PMO record put and page 2 deleted")
	}
	round("after-swap", 6)

	// A restore drops the image: the next round is a full sync.
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if d := round("after-restore", 6); !d.Full {
		t.Fatalf("first round after a restore was not a full sync")
	}
	round("steady", 6)

	// Silent rot on a restore-source page whose version stays put: only a
	// byte compare ships it. Writes stop here, so the rotted page is never
	// read back into the workload.
	incremental()
	key, src := restoreSourcePage(t, m, prev)
	m.Memory.InjectRot(src, 0, mem.PageSize, seed)
	if d := round("rot", 0); !putsKey(d, key) {
		t.Fatalf("rot round: rotted page %v is not in the delta", key)
	}

	return swapped
}

// restoreSourcePage picks a page entry of img and returns its key with the
// NVM frame a capture reads it from. It prefers, in key order, a page whose
// source is a versioned backup copy (stop-and-copy keeps those across
// rounds); under COW every committed source is a version-zero frame that
// the runtime shares, and the first page is taken.
func restoreSourcePage(t *testing.T, m *kernel.Machine, img *checkpoint.ReplImage) (checkpoint.ReplKey, mem.PageID) {
	t.Helper()
	var keys []checkpoint.ReplKey
	for k := range img.Entries {
		if k.Kind == checkpoint.ReplPage {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		t.Fatalf("image holds no page entries")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ObjID != keys[j].ObjID {
			return keys[i].ObjID < keys[j].ObjID
		}
		return keys[i].Page < keys[j].Page
	})
	for _, k := range keys {
		if src, ver := checkpoint.ReplSourcePage(m.Ckpt, k.ObjID, k.Page); !src.IsNil() && ver != 0 {
			return k, src
		}
	}
	src, _ := checkpoint.ReplSourcePage(m.Ckpt, keys[0].ObjID, keys[0].Page)
	if src.IsNil() {
		t.Fatalf("page entry %v has no restore source", keys[0])
	}
	return keys[0], src
}

// cloneDelta returns d with every put's bytes copied, so an image folded
// from it outlives the replicator's recycling of its page buffers.
func cloneDelta(d *checkpoint.Delta) *checkpoint.Delta {
	c := *d
	c.Puts = make([]checkpoint.ReplRecord, len(d.Puts))
	for i, p := range d.Puts {
		c.Puts[i] = checkpoint.ReplRecord{Key: p.Key, Data: bytes.Clone(p.Data)}
	}
	return &c
}

// checkStandby builds a standby from img and requires its backup digest,
// as installed and after a restore, to equal the primary's. A restore
// rebuilds a page entry without a restore source as a zero page, which
// changes the backup tree, so after a restore that lost pages only the
// installed digest is compared.
func checkStandby(t *testing.T, what string, m *kernel.Machine, img *checkpoint.ReplImage) {
	t.Helper()
	want := audit.BackupDigest(m.Ckpt, m.Memory)
	sb := kernel.NewStandby(m.Config())
	if err := sb.Ckpt.InstallImage(&sb.Cores[0].Lane, img); err != nil {
		t.Fatalf("%s: install: %v", what, err)
	}
	if got := audit.BackupDigest(sb.Ckpt, sb.Memory); got != want {
		t.Fatalf("%s: installed standby's backup digest %#x, primary's %#x", what, got, want)
	}
	sb.Crash()
	if err := sb.Restore(); err != nil {
		t.Fatalf("%s: standby restore: %v", what, err)
	}
	if got := audit.BackupDigest(sb.Ckpt, sb.Memory); got != want && len(sb.Ckpt.Manifest().Lost) == 0 {
		t.Fatalf("%s: restored standby's backup digest %#x, primary's %#x", what, got, want)
	}
}

// firstKey returns img's first entry of the given kind in key order.
func firstKey(img *checkpoint.ReplImage, kind byte) (checkpoint.ReplKey, bool) {
	var best checkpoint.ReplKey
	found := false
	for k := range img.Entries {
		if k.Kind == kind && (!found || k.ObjID < best.ObjID || k.ObjID == best.ObjID && k.Page < best.Page) {
			best, found = k, true
		}
	}
	return best, found
}

func recordKey(id uint64) checkpoint.ReplKey {
	return checkpoint.ReplKey{ObjID: id, Kind: checkpoint.ReplObject}
}

func pageKey(id, idx uint64) checkpoint.ReplKey {
	return checkpoint.ReplKey{ObjID: id, Page: idx, Kind: checkpoint.ReplPage}
}

func delsKey(d *checkpoint.Delta, k checkpoint.ReplKey) bool {
	for _, dk := range d.Dels {
		if dk == k {
			return true
		}
	}
	return false
}

func hasKind(d *checkpoint.Delta, kind byte) bool {
	for _, p := range d.Puts {
		if p.Key.Kind == kind {
			return true
		}
	}
	return false
}

func putsKey(d *checkpoint.Delta, k checkpoint.ReplKey) bool {
	for _, p := range d.Puts {
		if p.Key == k {
			return true
		}
	}
	return false
}
