package journal

import (
	"testing"

	"treesls/internal/mem"
	"treesls/internal/simclock"
)

func TestBeginCommitLifecycle(t *testing.T) {
	j, _ := newJournal(mem.ModeEADR)
	var lane simclock.Lane

	r := j.Begin(&lane, OpBuddyAlloc, 10, 2)
	if !r.Pending() {
		t.Fatal("fresh record not pending")
	}
	if r.Args[0] != 10 || r.Args[1] != 2 {
		t.Errorf("args = %v", r.Args)
	}
	if j.PendingRecord() != r {
		t.Error("PendingRecord did not return in-flight record")
	}
	j.MarkApplied(&lane, r)
	if r.Phase != PhaseApplied {
		t.Error("phase not advanced")
	}
	j.Commit(&lane, r)
	if r.Pending() || j.PendingRecord() != nil {
		t.Error("record still pending after commit")
	}
	if lane.Now() == 0 {
		t.Error("journal operations charged no simulated time")
	}
}

func TestBeginWhilePendingPanics(t *testing.T) {
	j, _ := newJournal(mem.ModeEADR)
	j.Begin(nil, OpBuddyAlloc)
	defer func() {
		if recover() == nil {
			t.Error("nested Begin did not panic")
		}
	}()
	j.Begin(nil, OpBuddyFree)
}

func TestCommitRetiredPanics(t *testing.T) {
	j, _ := newJournal(mem.ModeEADR)
	r := j.Begin(nil, OpBuddyFree)
	j.Commit(nil, r)
	defer func() {
		if recover() == nil {
			t.Error("double Commit did not panic")
		}
	}()
	j.Commit(nil, r)
}

func TestRetireClearsPending(t *testing.T) {
	j, _ := newJournal(mem.ModeEADR)
	r := j.Begin(nil, OpBuddyFree)
	j.Retire(r)
	if j.PendingRecord() != nil {
		t.Error("Retire left record pending")
	}
	j.Retire(nil) // must be a no-op
	// The journal accepts a new record after retirement.
	r2 := j.Begin(nil, OpCheckpointCommit)
	if r2.Seq <= r.Seq {
		t.Error("sequence numbers not monotonic")
	}
}

func TestOpStrings(t *testing.T) {
	// The op byte is part of the durable record body: values never move.
	if OpBuddyAlloc != 1 || OpBuddyFree != 2 || OpCheckpointCommit != 6 {
		t.Fatalf("op values moved: %d %d %d", OpBuddyAlloc, OpBuddyFree, OpCheckpointCommit)
	}
	ops := []Op{OpNone, OpBuddyAlloc, OpBuddyFree, OpCheckpointCommit}
	seen := map[string]bool{}
	for _, o := range ops {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("op %d has bad or duplicate name %q", o, s)
		}
		seen[s] = true
	}
}

func TestNilLaneAccepted(t *testing.T) {
	j, _ := newJournal(mem.ModeEADR)
	r := j.Begin(nil, OpBuddyAlloc, 1)
	j.MarkApplied(nil, r)
	j.Commit(nil, r)
	if j.Records != 1 {
		t.Errorf("Records = %d", j.Records)
	}
}

// newJournal builds a journal over a small simulated memory, as every
// kernel machine does.
func newJournal(mode mem.PersistMode) (*Journal, *mem.Memory) {
	m := mem.New(mem.Config{NVMFrames: 64, DRAMFrames: 8, Persist: mode, CrashSeed: 1},
		simclock.DefaultCostModel())
	return New(simclock.DefaultCostModel(), m), m
}

func TestNVMRecordSurvivesCrash(t *testing.T) {
	j, _ := newJournal(mem.ModeADR)
	r := j.Begin(nil, OpBuddyAlloc, 3, 1)
	j.MarkApplied(nil, r)
	j.OnCrash() // rebuild the Go mirror from the NVM frame
	got := j.PendingRecord()
	if got == nil {
		t.Fatal("pending record lost across crash")
	}
	if got.Op != OpBuddyAlloc || got.Phase != PhaseApplied || got.Args[0] != 3 || got.Args[1] != 1 {
		t.Fatalf("recovered record %+v", got)
	}
	if got.Seq != r.Seq {
		t.Fatalf("recovered seq %d, want %d", got.Seq, r.Seq)
	}
	// The sequence counter must not move backwards after recovery.
	j.Retire(got)
	if r2 := j.Begin(nil, OpBuddyFree, 3, 1); r2.Seq <= r.Seq {
		t.Fatalf("seq went backwards: %d after %d", r2.Seq, r.Seq)
	}
}

func TestCommittedRecordLeavesNothingPending(t *testing.T) {
	j, _ := newJournal(mem.ModeADR)
	r := j.Begin(nil, OpBuddyAlloc, 2, 0, 5)
	j.MarkApplied(nil, r)
	j.Commit(nil, r)
	j.OnCrash()
	if j.PendingRecord() != nil {
		t.Fatal("committed record resurfaced after crash")
	}
	if j.TornRecords != 0 {
		t.Fatalf("TornRecords = %d", j.TornRecords)
	}
}

// TestTornTailHealedFromMirrorByteByByte corrupts each of the 48 primary
// body bytes in turn (with the pending flag published) and checks that
// recovery detects the damage via the checksum, rebuilds the record from
// the mirror copy, and never replays garbage.
func TestTornTailHealedFromMirrorByteByByte(t *testing.T) {
	page := mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}
	for off := 0; off < recordSize; off++ {
		j, m := newJournal(mem.ModeADR)
		r := j.Begin(nil, OpBuddyAlloc, 7, 2)
		j.MarkApplied(nil, r)
		// Flip one bit of one body byte, as a tear inside the record's
		// cache line would.
		var b [1]byte
		m.ReadRaw(page, recordOff+off, b[:])
		b[0] ^= 0x10
		m.WriteRaw(page, recordOff+off, b[:])
		j.OnCrash()
		got := j.PendingRecord()
		if got == nil || got.Seq != r.Seq || got.Op != OpBuddyAlloc || got.Args != r.Args {
			t.Fatalf("byte %d: record not healed from mirror: %+v", off, got)
		}
		if j.MirrorRepairs != 1 || j.TornRecords != 0 {
			t.Fatalf("byte %d: repairs=%d torn=%d, want 1/0", off, j.MirrorRepairs, j.TornRecords)
		}
		// The repair must be durable: a second recovery pass reads a
		// clean primary.
		j.OnCrash()
		if j.MirrorRepairs != 1 || j.PendingRecord() == nil {
			t.Fatalf("byte %d: mirror repair not durable", off)
		}
	}
}

// TestTornTailBothCopiesDeadTruncates destroys the primary body *and* the
// mirror body: with no intact copy left, recovery must truncate the record
// (never replay garbage), and the truncation must be durable.
func TestTornTailBothCopiesDeadTruncates(t *testing.T) {
	page := mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}
	j, m := newJournal(mem.ModeADR)
	j.Begin(nil, OpBuddyAlloc, 7, 2)
	var b [1]byte
	for _, off := range []int{recordOff, mirrorBodyOff} {
		m.ReadRaw(page, off, b[:])
		b[0] ^= 0x10
		m.WriteRaw(page, off, b[:])
	}
	j.OnCrash()
	if j.PendingRecord() != nil {
		t.Fatal("record with both bodies corrupt replayed as pending")
	}
	if j.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1", j.TornRecords)
	}
	j.OnCrash()
	if j.TornRecords != 1 || j.PendingRecord() != nil {
		t.Fatal("truncation not durable")
	}
}

// TestPoisonedPrimaryHealedFromMirror poisons the primary flag and body
// lines (a machine-check read, not just scrambled bytes): recovery must
// rebuild both from the mirror and recover the pending record.
func TestPoisonedPrimaryHealedFromMirror(t *testing.T) {
	page := mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}
	j, m := newJournal(mem.ModeADR)
	r := j.Begin(nil, OpBuddyAlloc, 4, 1)
	m.InjectPoison(page, flagOff, 8, 11)
	m.InjectPoison(page, recordOff, recordSize, 12)
	j.OnCrash()
	got := j.PendingRecord()
	if got == nil || got.Seq != r.Seq || got.Op != OpBuddyAlloc {
		t.Fatalf("poisoned primary not healed from mirror: %+v", got)
	}
	if m.PoisonedLineCount() != 0 {
		t.Fatalf("%d poisoned lines left after repair", m.PoisonedLineCount())
	}
	if j.MirrorRepairs == 0 {
		t.Fatal("MirrorRepairs not counted")
	}
}

// TestScrubRepairsPoisonedMirror verifies the between-checkpoint scrub path:
// a poisoned mirror region is rebuilt from the intact primary without
// touching the logical journal state.
func TestScrubRepairsPoisonedMirror(t *testing.T) {
	page := mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}
	j, m := newJournal(mem.ModeADR)
	r := j.Begin(nil, OpBuddyFree, 3, 0)
	j.Commit(nil, r)
	m.InjectPoison(page, mirrorBodyOff, recordSize, 5)
	if n := j.Scrub(); n != 1 {
		t.Fatalf("Scrub repaired %d regions, want 1", n)
	}
	if m.PoisonedLineCount() != 0 {
		t.Fatal("scrub left poison behind")
	}
	if j.Scrub() != 0 {
		t.Fatal("second scrub found more damage on a clean frame")
	}
	// Both copies of a region dead: scrub rebuilds from Go-side truth.
	m.InjectPoison(page, flagOff, 8, 6)
	m.InjectPoison(page, mirrorFlagOff, 8, 7)
	if n := j.Scrub(); n != 2 {
		t.Fatalf("Scrub repaired %d regions, want 2", n)
	}
	j.OnCrash()
	if j.PendingRecord() != nil {
		t.Fatal("scrub resurrected a committed record")
	}
}

// TestDroppedFlagMeansNoRecord models the ADR outcome where Begin's body
// persisted but the flag line was dropped at the crash: recovery must see an
// empty journal.
func TestDroppedFlagMeansNoRecord(t *testing.T) {
	j, m := newJournal(mem.ModeADR)
	j.Begin(nil, OpBuddyFree, 9, 0)
	// Simulate the flag line dropping: overwrite it with its pre-Begin
	// content (zero), as applyCrashDamage would.
	var zero [8]byte
	m.WriteRaw(mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}, 0, zero[:])
	j.OnCrash()
	if j.PendingRecord() != nil {
		t.Fatal("record with dropped flag replayed")
	}
	if j.TornRecords != 0 {
		t.Fatalf("dropped flag miscounted as torn body: %d", j.TornRecords)
	}
}
