// Package journal implements the redo/undo journal that makes the TreeSLS
// checkpoint manager failure-resilient (§3 of the paper).
//
// The checkpoint manager's own state (buddy metadata, the operation log)
// is deliberately *not* captured by the capability-tree checkpoint — that
// would be a bootstrapping problem. Instead it lives on NVM and every
// in-flight mutation is bracketed by a journal record: Begin persists the
// record before the mutation touches metadata, Commit retires it atomically
// after the mutation is complete. After a power failure the recovery path
// inspects the (at most one, per journal) pending record and asks its owner
// to redo or undo the half-applied operation.
//
// The journal's durable truth is a reserved NVM frame (mem.JournalMetaFrame):
// the serialized record body lives in its own cache line, protected by an
// FNV-1a checksum, and an 8-byte pending flag in a separate line publishes
// it. The write discipline follows the clwb/sfence idiom of the relaxed ADR
// persistence model:
//
//	Begin:        write body -> flush -> fence -> write flag=1 -> flush -> fence
//	MarkApplied:  re-persist body (updated args + phase) atomically
//	Commit/Retire: flag=0 atomically
//
// A power failure can therefore leave (a) no record, (b) a fully persisted
// pending record, or (c) flag=1 with a damaged body — which the checksum
// detects, and OnCrash truncates the torn record rather than misreplaying
// it. MarkApplied and Commit use the atomic-publish primitive because the
// Go-level metadata mutations they bracket are themselves indivisible in
// the simulation; giving the phase flip a crash window would manufacture
// begun-vs-applied disagreements no real execution could exhibit.
package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// Op identifies the kind of in-flight operation a record protects.
type Op uint8

// Journal record kinds. The arguments' meaning is owned by the module that
// wrote the record (the allocator, or the checkpoint committer). The op byte
// is part of the durable record body and its checksum, so a value is never
// reused: 3, 4 and 5 belonged to retired slab and log-truncate records.
const (
	OpNone Op = iota
	// OpBuddyAlloc: args = frame of the allocated page.
	OpBuddyAlloc
	// OpBuddyFree: args = frame of the freed page.
	OpBuddyFree
	// OpCheckpointCommit: the global-version bump (redo-only; the version
	// word itself flips atomically, the record orders it w.r.t. the log
	// truncation).
	OpCheckpointCommit Op = 6
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpBuddyAlloc:
		return "buddy-alloc"
	case OpBuddyFree:
		return "buddy-free"
	case OpCheckpointCommit:
		return "ckpt-commit"
	default:
		return "none"
	}
}

// Phase tracks how far the protected operation got. Owners advance the phase
// at their own milestones so recovery knows whether to redo or undo.
type Phase uint8

const (
	// PhaseBegun: the record is persisted but the mutation has not
	// modified any metadata yet. Recovery discards the operation.
	PhaseBegun Phase = iota
	// PhaseApplied: the mutation has fully modified metadata but the
	// caller has not yet observed the result. Recovery redoes dependent
	// bookkeeping (or simply retires the record).
	PhaseApplied
)

// Record is one journal entry.
type Record struct {
	Seq   uint64
	Op    Op
	Phase Phase
	Args  [3]uint64

	pending bool
}

// Pending reports whether the record is still in flight.
func (r *Record) Pending() bool { return r != nil && r.pending }

// NVM layout of the journal frame (mem.JournalMetaFrame). The pending flag
// and the record body sit in separate cache lines so a tear of one cannot
// touch the other. A full second copy (the mirror) lives two lines further
// up: hot checkpoint metadata is too small to protect with dual-version
// page redundancy, so it is mirrored instead, and OnCrash/Scrub repair
// whichever copy a media fault destroyed. The mirror is always written
// after the primary is durable, so it can lag but never lead.
const (
	flagOff       = 0
	recordOff     = mem.LineSize
	recordSize    = 48
	mirrorFlagOff = 2 * mem.LineSize
	mirrorBodyOff = 3 * mem.LineSize
)

// Journal is a single-writer redo/undo journal on NVM. TreeSLS's kernel runs
// allocator operations under the kernel lock, so at most one record is in
// flight at a time; the journal enforces that invariant.
type Journal struct {
	model  *simclock.CostModel
	memory *mem.Memory
	page   mem.PageID

	seq     uint64
	current *Record
	obs     *obs.Observer

	// Stats for the experiment reports.
	Records uint64
	// TornRecords counts pending records whose body failed its checksum
	// after a power failure and were truncated instead of replayed.
	TornRecords uint64
	// MirrorRepairs counts journal-frame regions rebuilt from their
	// mirror (or re-synced onto a lagging mirror) after a media fault.
	MirrorRepairs uint64
}

// New creates an empty journal over memory: it serializes its in-flight
// record to the reserved NVM metadata frame and survives power failures
// through OnCrash.
func New(model *simclock.CostModel, memory *mem.Memory) *Journal {
	return &Journal{
		model:  model,
		memory: memory,
		page:   mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame},
	}
}

// SetObserver attaches the observability layer: record lifecycle events
// (begin/applied/commit) become trace instants on the issuing core's lane,
// and the journal counters become snapshot-time metrics.
func (j *Journal) SetObserver(o *obs.Observer) {
	j.obs = o
	if o.MetricsOn() {
		r := o.Metrics
		r.GaugeFunc("journal.records", func() int64 { return int64(j.Records) })
		r.GaugeFunc("journal.torn_records", func() int64 { return int64(j.TornRecords) })
		r.GaugeFunc("journal.mirror_repairs", func() int64 { return int64(j.MirrorRepairs) })
	}
}

// traceEvent records one record-lifecycle instant when tracing is on.
func (j *Journal) traceEvent(lane *simclock.Lane, name string, r *Record) {
	if !j.obs.TraceOn() || lane == nil {
		return
	}
	j.obs.Trace.Instant(lane.ID(), lane.Now(), "journal", name,
		obs.I("seq", int64(r.Seq)), obs.S("op", r.Op.String()))
}

// recordSumSeed starts the record checksum. It is one digit short of the
// FNV-1a offset basis (mem.FNVOffset) and must stay that way: the checksum
// is part of the durable record format, so changing it would invalidate
// every record already on NVM and the checked-in fuzz corpus.
const recordSumSeed = 1469598103934665603

// fnv64a is the FNV-1a fold protecting the record body against tears.
func fnv64a(b []byte) uint64 { return mem.FoldFNV(recordSumSeed, b) }

// encode serializes r into a record body: seq, the three args, an op/phase
// word, and the checksum over everything before it.
func encode(r *Record) [recordSize]byte {
	var b [recordSize]byte
	binary.LittleEndian.PutUint64(b[0:], r.Seq)
	binary.LittleEndian.PutUint64(b[8:], r.Args[0])
	binary.LittleEndian.PutUint64(b[16:], r.Args[1])
	binary.LittleEndian.PutUint64(b[24:], r.Args[2])
	binary.LittleEndian.PutUint64(b[32:], uint64(r.Op)|uint64(r.Phase)<<8)
	binary.LittleEndian.PutUint64(b[40:], fnv64a(b[:40]))
	return b
}

// decode parses a record body, reporting whether the checksum held.
func decode(b []byte) (Record, bool) {
	if binary.LittleEndian.Uint64(b[40:]) != fnv64a(b[:40]) {
		return Record{}, false
	}
	opPhase := binary.LittleEndian.Uint64(b[32:])
	return Record{
		Seq:   binary.LittleEndian.Uint64(b[0:]),
		Op:    Op(opPhase & 0xff),
		Phase: Phase(opPhase >> 8 & 0xff),
		Args: [3]uint64{
			binary.LittleEndian.Uint64(b[8:]),
			binary.LittleEndian.Uint64(b[16:]),
			binary.LittleEndian.Uint64(b[24:]),
		},
	}, true
}

// persistBody re-persists the record body atomically (MarkApplied updates
// args and phase under the same publish).
func (j *Journal) persistBody(lane *simclock.Lane, r *Record) {
	b := encode(r)
	d := j.memory.PersistAtomic(j.page, recordOff, b[:])
	d += j.memory.PersistAtomic(j.page, mirrorBodyOff, b[:])
	if lane != nil {
		lane.Charge(d)
	}
}

// persistFlag publishes the pending flag atomically, primary first so the
// mirror can only lag.
func (j *Journal) persistFlag(lane *simclock.Lane, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d := j.memory.PersistAtomic(j.page, flagOff, b[:])
	d += j.memory.PersistAtomic(j.page, mirrorFlagOff, b[:])
	if lane != nil {
		lane.Charge(d)
	}
}

// Begin persists a new pending record and returns it. It panics if another
// record is already in flight (a kernel-lock violation in the simulation).
func (j *Journal) Begin(lane *simclock.Lane, op Op, args ...uint64) *Record {
	if j.current.Pending() {
		panic(fmt.Sprintf("journal: Begin(%s) while %s still pending", op, j.current.Op))
	}
	j.seq++
	r := &Record{Seq: j.seq, Op: op, pending: true}
	copy(r.Args[:], args)
	// Body first (own cache line), then the flag that publishes it. A
	// crash anywhere in this window leaves flag=0 — no record — and the
	// protected mutation has not run yet.
	b := encode(r)
	j.memory.WriteRaw(j.page, recordOff, b[:])
	d := j.memory.Flush(j.page, recordOff, recordSize)
	d += j.memory.Fence()
	var fb [8]byte
	binary.LittleEndian.PutUint64(fb[:], 1)
	j.memory.WriteRaw(j.page, flagOff, fb[:])
	d += j.memory.Flush(j.page, flagOff, 8)
	d += j.memory.Fence()
	// The primary is durable; now lay down the mirror. A crash in this
	// window leaves the mirror stale, which OnCrash tolerates (the
	// primary always wins when readable).
	d += j.memory.PersistAtomic(j.page, mirrorBodyOff, b[:])
	d += j.memory.PersistAtomic(j.page, mirrorFlagOff, fb[:])
	if lane != nil {
		lane.Charge(d)
	}
	j.current = r
	j.Records++
	if lane != nil {
		lane.Charge(j.model.JournalRecord)
	}
	j.traceEvent(lane, "begin", r)
	return r
}

// MarkApplied records that the protected mutation has fully hit metadata.
// The record body (final args + phase) is re-persisted atomically.
func (j *Journal) MarkApplied(lane *simclock.Lane, r *Record) {
	if !r.Pending() {
		panic("journal: MarkApplied on retired record")
	}
	r.Phase = PhaseApplied
	j.persistBody(lane, r)
	if lane != nil {
		lane.Charge(j.model.JournalRecord / 2)
	}
	j.traceEvent(lane, "applied", r)
}

// Commit retires the record. The flag flip is atomic on NVM.
func (j *Journal) Commit(lane *simclock.Lane, r *Record) {
	if !r.Pending() {
		panic("journal: Commit on retired record")
	}
	r.pending = false
	if j.current == r {
		j.current = nil
	}
	j.persistFlag(lane, 0)
	if lane != nil {
		lane.Charge(j.model.JournalRecord / 2)
	}
	j.traceEvent(lane, "commit", r)
}

// PendingRecord returns the in-flight record, or nil. Recovery calls this
// after a crash; the owner of the op decides how to repair.
func (j *Journal) PendingRecord() *Record {
	if j.current.Pending() {
		return j.current
	}
	return nil
}

// Retire clears the pending record during recovery, after the owner has
// repaired the half-applied operation.
func (j *Journal) Retire(r *Record) {
	if r == nil {
		return
	}
	r.pending = false
	if j.current == r {
		j.current = nil
	}
	j.persistFlag(nil, 0)
}

// readFlag loads the 8-byte flag at off; ok is false when the line is
// poisoned (machine check) — the value is then meaningless.
func (j *Journal) readFlag(off int) (v uint64, ok bool) {
	if j.memory.CheckRead(j.page, off, 8) != nil {
		return 0, false
	}
	var fb [8]byte
	j.memory.ReadRaw(j.page, off, fb[:])
	return binary.LittleEndian.Uint64(fb[:]), true
}

// readBody loads and validates the record body at off; ok requires both a
// clean (unpoisoned) read and an intact checksum.
func (j *Journal) readBody(off int) (rec Record, raw [recordSize]byte, ok bool) {
	if j.memory.CheckRead(j.page, off, recordSize) != nil {
		return Record{}, raw, false
	}
	j.memory.ReadRaw(j.page, off, raw[:])
	rec, ok = decode(raw[:])
	return rec, raw, ok
}

// rewriteRegion repairs one journal-frame region: the bytes are rewritten
// atomically and any poison on the covering lines is cleared (the repair
// write re-establishes ECC for the full region).
func (j *Journal) rewriteRegion(off int, b []byte) {
	j.memory.PersistAtomic(j.page, off, b)
	j.memory.ClearPoison(j.page, off, mem.LineSize)
}

// OnCrash re-derives the in-flight record from the NVM frame after a power
// failure. The Go-side mirror may be stale or damaged-relative: under ADR
// the flag word can have dropped back to its previous value, the body
// checksum can fail, and a media fault can have poisoned any of the four
// regions. Resolution order: a readable primary always wins (it is written
// first, so it is never staler than the mirror); a poisoned or torn primary
// falls back to the mirror and repairs the primary from it; when both
// copies of the body are gone the record is truncated, not replayed — the
// owner's op-log rollback covers a Begun mutation.
func (j *Journal) OnCrash() {
	if j.current != nil {
		j.current.pending = false
		j.current = nil
	}
	flag, flagOK := j.readFlag(flagOff)
	if !flagOK {
		// Primary flag poisoned: the mirror decides, and the primary
		// flag is rebuilt from it.
		mf, mfOK := j.readFlag(mirrorFlagOff)
		if !mfOK {
			mf = 0 // both flags dead: fail closed, truncate
			j.TornRecords++
		}
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], mf)
		j.rewriteRegion(flagOff, fb[:])
		j.MirrorRepairs++
		flag = mf
	}
	if flag != 1 {
		return
	}
	rec, _, ok := j.readBody(recordOff)
	if !ok {
		// Primary body torn or poisoned: adopt the mirror if it holds
		// a valid record for the same publish, and heal the primary.
		if mf, mfOK := j.readFlag(mirrorFlagOff); mfOK && mf == 1 {
			if mrec, mraw, mok := j.readBody(mirrorBodyOff); mok {
				j.rewriteRegion(recordOff, mraw[:])
				j.MirrorRepairs++
				j.adopt(mrec)
				return
			}
		}
		// No intact copy: truncate. The flag flip also repairs any
		// poison on the flag lines.
		j.TornRecords++
		var fb [8]byte
		j.rewriteRegion(flagOff, fb[:])
		j.rewriteRegion(mirrorFlagOff, fb[:])
		return
	}
	j.adopt(rec)
}

// adopt installs a recovered record as the in-flight one.
func (j *Journal) adopt(rec Record) {
	r := &Record{Seq: rec.Seq, Op: rec.Op, Phase: rec.Phase, Args: rec.Args, pending: true}
	j.current = r
	if r.Seq > j.seq {
		j.seq = r.Seq
	}
}

// Scrub verifies the four journal-frame regions between checkpoints and
// repairs media damage early, while redundancy still exists: a poisoned
// copy is rebuilt from its intact twin, a lagging mirror is re-synced from
// the primary, and when both copies of a region are dead it is rebuilt
// from the in-run Go-side truth (the journal object is authoritative while
// the machine is up). Returns the number of repairs performed.
func (j *Journal) Scrub() int {
	repairs := 0
	fix := func(primary, mirror, size int, truth []byte) {
		pBad := j.memory.Poisoned(j.page, primary, size)
		mBad := j.memory.Poisoned(j.page, mirror, size)
		buf := make([]byte, size)
		switch {
		case pBad && !mBad:
			j.memory.ReadRaw(j.page, mirror, buf)
			j.rewriteRegion(primary, buf)
			repairs++
		case mBad && !pBad:
			j.memory.ReadRaw(j.page, primary, buf)
			j.rewriteRegion(mirror, buf)
			repairs++
		case pBad && mBad:
			j.rewriteRegion(primary, truth)
			j.rewriteRegion(mirror, truth)
			repairs += 2
		default:
			// Both readable: re-sync a mirror that lags the primary
			// (a crash can strand it one publish behind).
			j.memory.ReadRaw(j.page, primary, buf)
			mbuf := make([]byte, size)
			j.memory.ReadRaw(j.page, mirror, mbuf)
			if !bytes.Equal(buf, mbuf) {
				j.rewriteRegion(mirror, buf)
				repairs++
			}
		}
	}
	var flagTruth [8]byte
	var bodyTruth [recordSize]byte
	if j.current.Pending() {
		binary.LittleEndian.PutUint64(flagTruth[:], 1)
		bodyTruth = encode(j.current)
	}
	fix(flagOff, mirrorFlagOff, 8, flagTruth[:])
	fix(recordOff, mirrorBodyOff, recordSize, bodyTruth[:])
	j.MirrorRepairs += uint64(repairs)
	return repairs
}
