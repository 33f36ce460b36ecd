package checkpoint

// Checkpoint replication (the off-box extension of §8 "Data Reliability"):
// the backup capability tree — the state a crash at this instant would
// restore — is serialized into a *replication image*, a flat map from stable
// keys (object ID, page index) to canonical byte records. The primary keeps
// one image and brings it up to date in place each committed round, which
// yields the round's delta: its size is proportional to the round's write
// set (the same property the tree-structured incremental walk gives local
// checkpoints). A delta stream folds back into an image that InstallImage
// materializes as a standby machine's backup tree. The digest contract: a
// standby built from a folded image restores to exactly the primary's audit
// BackupDigest at the image's version.
//
// The walk order, the restore-source rules, and the per-kind field sets
// mirror obs/audit.BackupDigest — anything the digest covers, the image
// carries, so digest equality across primary and standby is meaningful.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// Replication-entry kinds (ReplKey.Kind).
const (
	// ReplObject is one object's canonical snapshot record.
	ReplObject byte = iota
	// ReplPage is the content of one backup page (4 KiB).
	ReplPage
	// ReplSwap is the content of one swapped-out page's swap slot.
	ReplSwap
)

// Page-state markers inside a PMO object record.
const (
	replMarkContent  = 0 // a ReplPage entry carries the bytes
	replMarkSwapped  = 1 // a ReplSwap entry carries the bytes; slot follows
	replMarkNoSource = 3 // no recoverable source (mirrors the audit marker)
)

// ReplKey addresses one replication-image entry by stable identity: frame
// numbers and other placement details never appear, so primary and standby
// agree on keys even though their allocators differ.
type ReplKey struct {
	ObjID uint64
	Page  uint64 // page index for ReplPage/ReplSwap; 0 for ReplObject
	Kind  byte
}

// ReplRecord is one keyed entry of a delta.
type ReplRecord struct {
	Key  ReplKey
	Data []byte
}

// ReplImage is the flat serialized form of the backup tree at one committed
// version.
type ReplImage struct {
	// Version is the committed checkpoint version the image captures.
	Version uint64
	// NextID is the tree's saved ID counter at that commit.
	NextID uint64
	// RootID is the object ID of the backup root cap group.
	RootID uint64
	// Entries maps stable keys to canonical records.
	Entries map[ReplKey][]byte

	// CaptureReplDelta's working state, reused across rounds: the capture
	// count (a walk's visited mark), the object-record encode buffer and
	// the walk's reference stack.
	epoch uint64
	buf   []byte
	refs  []*caps.ORoot

	// objs holds, indexed by object ID, what each object's entries were
	// last captured from; memory is the device the page stamps belong to.
	memory *mem.Memory
	objs   []replObj

	// Page buffers the image let go of. retired holds each with the
	// version of the capture that replaced or deleted it, in capture
	// order; free holds the ones Recycle released for the next captures
	// to fill. recycling is set by the first Recycle: until then a
	// replaced buffer is simply dropped.
	retired   []retiredBuf
	free      [][]byte
	recycling bool
}

// replObj is one object's capture stamps.
type replObj struct {
	// epoch is the capture that last visited the object.
	epoch uint64
	// snap and ver are the committed snapshot the object's record was
	// last captured from and its version; snap is nil when the image
	// holds no record of the object.
	snap caps.Snapshot
	ver  uint64
	// typ and size are a PMO's type and size in pages when its skeleton
	// record was last captured.
	typ  caps.PMOType
	size uint64
	// pages holds a PMO's non-stillborn page entries in index order, as
	// the last capture found them; next is the buffer the following
	// capture fills, and the two swap after each walk.
	pages, next []pageStamp
}

// pageStamp is one non-stillborn page entry of a PMO as a capture found
// it: its page index and kind (ReplPage, ReplSwap, or stampNoSource for an
// entry without a restore source, which has no page-level entry). For a
// ReplPage entry, page is its source frame and gen that frame's write
// generation; for a ReplSwap entry, gen is its swap slot. A PMO's stamps in
// index order, with its type and size, determine its skeleton record.
type pageStamp struct {
	idx  uint64
	gen  uint64
	page mem.PageID
	kind byte
}

// stampNoSource is the pageStamp kind of an entry with no restore source;
// it is no ReplKey kind.
const stampNoSource byte = 0xff

// sameSkeleton reports whether stamps a and b give the same skeleton
// entry: the same index and kind, and for a swapped page the same slot.
func sameSkeleton(a, b pageStamp) bool {
	return a.idx == b.idx && a.kind == b.kind && (a.kind != ReplSwap || a.gen == b.gen)
}

// retiredBuf is a page buffer the image dropped at capture version ver.
type retiredBuf struct {
	ver uint64
	buf []byte
}

// obj returns object id's capture stamps, growing the table to hold id.
// The pointer is valid until the next call.
func (img *ReplImage) obj(id uint64) *replObj {
	if n := uint64(len(img.objs)); id >= n {
		img.objs = append(img.objs, make([]replObj, id+1-n)...)
	}
	return &img.objs[id]
}

// live reports whether the current capture reached entry k.
func (img *ReplImage) live(k ReplKey) bool {
	if k.ObjID >= uint64(len(img.objs)) {
		return false
	}
	st := &img.objs[k.ObjID]
	if st.epoch != img.epoch || st.snap == nil {
		return false
	}
	if k.Kind == ReplObject {
		return true
	}
	i, ok := slices.BinarySearchFunc(st.pages, k.Page, func(p pageStamp, idx uint64) int { return cmp.Compare(p.idx, idx) })
	return ok && st.pages[i].kind == k.Kind
}

// forget clears the stamps of object id unless the current capture reached
// it, so an entry of it that reappears is compared again.
func (img *ReplImage) forget(id uint64) {
	if id >= uint64(len(img.objs)) {
		return
	}
	if st := &img.objs[id]; st.epoch != img.epoch || st.snap == nil {
		st.snap, st.ver = nil, 0
		st.pages, st.next = st.pages[:0], st.next[:0]
	}
}

// retire hands the image's buffer for page-level entry k (nil when k is
// new) to the recycler, tagged with the version of the capture that let it
// go.
func (img *ReplImage) retire(k ReplKey, buf []byte) {
	if img.recycling && k.Kind != ReplObject && len(buf) == mem.PageSize {
		img.retired = append(img.retired, retiredBuf{ver: img.Version, buf: buf})
	}
}

// clone returns a copy of entry k's current bytes: a page-level entry goes
// into a recycled buffer when one is free.
func (img *ReplImage) clone(k ReplKey, cur []byte) []byte {
	if n := len(img.free); n > 0 && k.Kind != ReplObject && len(cur) == mem.PageSize {
		buf := img.free[n-1]
		img.free[n-1] = nil
		img.free = img.free[:n-1]
		copy(buf, cur)
		return buf
	}
	return bytes.Clone(cur)
}

// Recycle makes the page buffers the image retired at or below version
// oldest reusable by its later captures. A buffer the capture at version r
// replaced or deleted is shared only by deltas of versions below r: the
// one that put it and the full syncs since. So once no delta older than
// oldest is kept anywhere, the buffers retired at or below oldest are
// unreferenced. The replicator calls it with the oldest version its ledger
// retains. Until the first call the image retires nothing, so an image
// nobody recycles never reuses a buffer.
func (img *ReplImage) Recycle(oldest uint64) {
	img.recycling = true
	n := 0
	for n < len(img.retired) && img.retired[n].ver <= oldest {
		img.free = append(img.free, img.retired[n].buf)
		n++
	}
	if n > 0 {
		rest := copy(img.retired, img.retired[n:])
		clear(img.retired[rest:])
		img.retired = img.retired[:rest]
	}
}

// Delta is the difference between two replication images: the records that
// changed or appeared (Puts) and the keys that vanished (Dels). A Full delta
// diffs against the empty image — the periodic full-tree sync that
// bootstraps or heals a standby.
type Delta struct {
	// Version is the image version this delta produces.
	Version uint64
	// From is the image version this delta applies on top of (0 for Full).
	From uint64
	// Full marks a full-tree sync.
	Full   bool
	NextID uint64
	RootID uint64
	// Puts share the capturing image's buffers: a Data slice stays valid
	// until the image retires it and Recycle releases it (see Recycle).
	Puts []ReplRecord
	Dels []ReplKey
}

// replKeyCompare orders keys deterministically: (ObjID, Kind, Page).
func replKeyCompare(a, b ReplKey) int {
	if c := cmp.Compare(a.ObjID, b.ObjID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return cmp.Compare(a.Page, b.Page)
}

// recEncoder writes one canonical object record: little-endian u64 fields
// with length prefixes, object references reduced to IDs (0 = nil). With
// fold set it folds the record into the FNV-1a hash h instead of appending
// it to buf, so recordSum digests the very bytes replication ships without
// building them.
type recEncoder struct {
	buf  []byte
	fold bool
	h    uint64
}

func (e *recEncoder) u64(v uint64) {
	if e.fold {
		e.h = mem.FoldFNV64(e.h, v)
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *recEncoder) byte(b byte) {
	if e.fold {
		e.h = (e.h ^ uint64(b)) * mem.FNVPrime
		return
	}
	e.buf = append(e.buf, b)
}

func (e *recEncoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	if e.fold {
		e.h = mem.FoldFNV(e.h, b)
		return
	}
	e.buf = append(e.buf, b...)
}

func (e *recEncoder) root(r *caps.ORoot) {
	if r == nil {
		e.u64(0)
		return
	}
	e.u64(r.ObjID)
}

// encodeRecord writes the canonical record of a non-PMO snapshot: its kind,
// then every field. It is the one field list of a backup object record:
// the replication image carries it, recordSum digests it, and
// decodeObjectRecord reads it back. A PMO record (skeleton plus per-page
// markers) is written by encodeSkeleton from a capture's page stamps; page
// checksums, not a record digest, guard its content.
func encodeRecord(e *recEncoder, snap caps.Snapshot) {
	e.byte(byte(snap.SnapKind()))
	switch s := snap.(type) {
	case *caps.CapGroupSnap:
		e.bytes([]byte(s.Name))
		e.u64(uint64(len(s.Slots)))
		for _, bc := range s.Slots {
			e.root(bc.Root)
			e.byte(byte(bc.Rights))
		}
	case *caps.ThreadSnap:
		e.u64(s.Ctx.PC)
		e.u64(s.Ctx.SP)
		for _, reg := range s.Ctx.R {
			e.u64(reg)
		}
		e.u64(uint64(int64(s.Sched.Priority)))
		e.u64(uint64(int64(s.Sched.Affinity)))
		e.u64(uint64(s.Sched.TimeSlice))
		e.byte(byte(s.State))
	case *caps.VMSpaceSnap:
		e.u64(uint64(len(s.Regions)))
		for i := range s.Regions {
			rs := &s.Regions[i]
			e.u64(rs.VABase)
			e.u64(rs.NumPages)
			e.root(rs.PMORoot)
			e.u64(rs.PMOOffset)
			e.byte(byte(rs.Perm))
		}
	case *caps.IPCConnSnap:
		e.root(s.ClientRoot)
		e.root(s.ServerRoot)
		e.bytes(s.Buf)
		e.u64(s.Seq)
	case *caps.NotificationSnap:
		e.u64(uint64(int64(s.Count)))
		e.u64(uint64(len(s.Waiters)))
		for _, w := range s.Waiters {
			e.root(w)
		}
	case *caps.IRQNotificationSnap:
		e.u64(uint64(int64(s.Line)))
		e.u64(uint64(s.Pending))
		e.root(s.HandlerRoot)
	}
}

// encodeSkeleton writes the canonical record of PMO snapshot s from the
// stamps of its non-stillborn page entries: its kind, type, size and page
// count, then each page's index and marker, and a swapped page's slot.
func encodeSkeleton(e *recEncoder, s *caps.PMOSnap, pages []pageStamp) {
	e.byte(byte(caps.KindPMO))
	e.byte(byte(s.Type))
	e.u64(s.SizePages)
	e.u64(uint64(len(pages)))
	for _, p := range pages {
		e.u64(p.idx)
		switch p.kind {
		case ReplPage:
			e.byte(replMarkContent)
		case ReplSwap:
			e.byte(replMarkSwapped)
			e.u64(p.gen)
		default:
			e.byte(replMarkNoSource)
		}
	}
}

// recDecoder parses a canonical object record.
type recDecoder struct {
	buf []byte
	off int
	err error
}

func (d *recDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *recDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("checkpoint: truncated replication record")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *recDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("checkpoint: truncated replication record")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *recDecoder) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("checkpoint: replication record length %d overruns buffer", n)
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:])
	d.off += int(n)
	return b
}

// replPageMeta is one page's entry in a decoded PMO skeleton record.
type replPageMeta struct {
	Idx    uint64
	Marker byte
	Slot   uint64 // swap slot, for replMarkSwapped
}

// CaptureReplDelta brings img up to date with the backup tree at the
// current committed version and returns the delta from img's previous
// contents: a Full delta (every entry, From 0) when full is set or img is
// empty, otherwise the entries whose bytes changed as Puts and the keys the
// walk no longer reaches as Dels, both in key order — exactly the delta
// that diffing two full captures yields.
//
// The walk visits every entry once, and img's stamps decide which ones it
// must compare. A non-PMO record whose object's newest committed snapshot
// is the very snapshot, at the very version, it was last encoded from is
// unchanged: a snapshot slot is only rewritten in place under a new
// version. A PMO's skeleton record is unchanged when its type, size and
// page stamps (each entry's index, kind and swap slot) match the last
// capture's, and only otherwise encoded. A page entry whose source frame
// and write generation both match its stamp is unchanged: every change to a
// frame's bytes bumps its generation (media rot and scrub repairs
// included). No unchanged entry is encoded, nor looked up in img unless a
// full sync puts it. Every other entry (a swapped page, a moved stamp, a
// record encoded afresh) is compared byte for byte with img's, and only one
// that differs is copied: a page into a buffer Recycle released, anything
// else into a fresh slice. The buffer an entry drops is retired with this
// capture's version, since earlier deltas share it.
//
// A swapped page ships its swap slot's content: the audit digest only marks
// swapped pages, but a standby must hold the bytes. Capture is pure Go-side
// work — simulated cost is charged by the caller per delta entry, matching
// the incremental-walk philosophy (unchanged state costs a tree visit, not a
// copy).
func (m *Manager) CaptureReplDelta(img *ReplImage, full bool) *Delta {
	d := &Delta{Version: m.committed, NextID: m.savedNextID, Full: full || len(img.Entries) == 0}
	if !d.Full {
		d.From = img.Version
	} else if len(img.Entries) > 0 {
		// A full delta puts about every entry the image holds.
		d.Puts = make([]ReplRecord, 0, len(img.Entries))
	}
	if img.Entries == nil {
		img.Entries = make(map[ReplKey][]byte)
	}
	if img.memory != m.memory || len(img.Entries) == 0 {
		img.memory = m.memory
		clear(img.objs)
	}
	img.Version, img.NextID, img.RootID = m.committed, m.savedNextID, 0
	img.epoch++
	reached := 0
	emit := func(k ReplKey, cur []byte, same bool) {
		reached++
		if same {
			if d.Full {
				d.Puts = append(d.Puts, ReplRecord{Key: k, Data: img.Entries[k]})
			}
			return
		}
		old, ok := img.Entries[k]
		if ok && bytes.Equal(old, cur) {
			if d.Full {
				d.Puts = append(d.Puts, ReplRecord{Key: k, Data: old})
			}
			return
		}
		img.retire(k, old)
		cur = img.clone(k, cur)
		img.Entries[k] = cur
		d.Puts = append(d.Puts, ReplRecord{Key: k, Data: cur})
	}
	if m.rootORoot != nil && m.committed != 0 {
		img.RootID = m.rootORoot.ObjID
		d.RootID = img.RootID
		m.walkRepl(img, emit)
	}
	// The walk reaches each key at most once, so some key is stale exactly
	// when the image holds more keys than the walk reached.
	if reached < len(img.Entries) {
		for k, buf := range img.Entries {
			if img.live(k) {
				continue
			}
			delete(img.Entries, k)
			img.retire(k, buf)
			img.forget(k.ObjID)
			if !d.Full {
				d.Dels = append(d.Dels, k)
			}
		}
	}
	slices.SortFunc(d.Puts, func(a, b ReplRecord) int { return replKeyCompare(a.Key, b.Key) })
	slices.SortFunc(d.Dels, replKeyCompare)
	return d
}

// walkRepl visits the committed backup tree in the audit digest's order and
// passes every replication entry to emit, with same set when img's stamps
// show img already holds the entry's current bytes, and otherwise with
// those bytes. It refreshes the stamps as it goes. Object records are
// encoded into img's reused buffer and pages are NVM's live frames, so emit
// must copy whatever it keeps. An object's record comes after its page
// entries and before its children, which are visited in appendSnapshotRefs
// order through the reference stack img keeps.
func (m *Manager) walkRepl(img *ReplImage, emit func(k ReplKey, cur []byte, same bool)) {
	e := recEncoder{buf: img.buf}
	var visit func(r *caps.ORoot)
	visit = func(r *caps.ORoot) {
		if r == nil {
			return
		}
		st := img.obj(r.ObjID)
		if st.epoch == img.epoch {
			return
		}
		st.epoch = img.epoch
		snap, ver := r.LatestCommitted(m.committed)
		if snap == nil {
			// Unrestorable root: the digest marks it, nothing to
			// ship, and its old entries go as stale.
			st.snap, st.ver = nil, 0
			return
		}
		k := ReplKey{ObjID: r.ObjID, Kind: ReplObject}
		s, isPMO := snap.(*caps.PMOSnap)
		switch {
		case !isPMO && st.snap == snap && st.ver == ver:
			emit(k, nil, true)
		case !isPMO:
			e.buf = e.buf[:0]
			encodeRecord(&e, snap)
			st.snap, st.ver = snap, ver
			emit(k, e.buf, false)
		default:
			// The stamps the last capture left, in index order, are
			// merged against the walk: j finds a page's old stamp, and
			// same stays set while the new stamps repeat the old ones.
			prev, next, j := st.pages, st.next[:0], 0
			same := st.snap != nil && st.typ == s.Type && st.size == s.SizePages
			s.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
				if cp.Born > m.committed {
					return true // stillborn: not part of restorable state
				}
				for j < len(prev) && prev[j].idx < idx {
					j++
				}
				ps := pageStamp{idx: idx, kind: stampNoSource}
				switch src := RestoreSource(cp, m.committed); src {
				case srcSwap:
					ps.kind, ps.gen = ReplSwap, cp.Swap-1
					emit(ReplKey{ObjID: r.ObjID, Page: idx, Kind: ReplSwap}, m.swap.data[ps.gen], false)
				case srcNone:
				default:
					ps.kind, ps.page = ReplPage, cp.Page[src]
					ps.gen = m.memory.Gen(ps.page)
					pk := ReplKey{ObjID: r.ObjID, Page: idx, Kind: ReplPage}
					if j < len(prev) && prev[j] == ps {
						emit(pk, nil, true)
					} else {
						emit(pk, m.memory.Data(ps.page), false)
					}
				}
				n := len(next)
				same = same && n < len(prev) && sameSkeleton(prev[n], ps)
				next = append(next, ps)
				return true
			})
			same = same && len(next) == len(prev)
			st.pages, st.next = next, prev
			st.snap, st.ver, st.typ, st.size = snap, ver, s.Type, s.SizePages
			if same {
				emit(k, nil, true)
			} else {
				e.buf = e.buf[:0]
				encodeSkeleton(&e, s, next)
				emit(k, e.buf, false)
			}
		}
		// Nested visits push above this window and may move the stack
		// and the stamp table, so every entry is re-read and st is dead.
		base := len(img.refs)
		img.refs = appendSnapshotRefs(img.refs, snap)
		for i, end := base, len(img.refs); i < end; i++ {
			visit(img.refs[i])
		}
		clear(img.refs[base:])
		img.refs = img.refs[:base]
	}
	visit(m.rootORoot)
	img.buf = e.buf
}

// FoldDelta applies d to img in place (creating the entry map if needed) and
// returns img. Applying the deltas of rounds F+1..N in order to the full-sync
// image of round F reproduces round N's image exactly — the property the
// replication property test verifies against the audit digest.
func FoldDelta(img *ReplImage, d *Delta) *ReplImage {
	if img == nil {
		img = &ReplImage{}
	}
	if img.Entries == nil || d.Full {
		img.Entries = make(map[ReplKey][]byte, len(d.Puts))
	}
	clear(img.objs) // the folded entries no longer match any capture stamp
	for _, p := range d.Puts {
		img.Entries[p.Key] = p.Data
	}
	for _, k := range d.Dels {
		delete(img.Entries, k)
	}
	img.Version = d.Version
	img.NextID = d.NextID
	img.RootID = d.RootID
	return img
}

// PayloadBytes is the delta's wire payload size: a 41-byte header
// (version, from, next ID and root ID as u64s, the Full flag, the put and
// delete counts as u32s), then each put as its 17-byte key, a u32 length
// and the record bytes, then each delete as its 17-byte key. Replication
// charges its links this size; no delta is ever serialized.
func (d *Delta) PayloadBytes() int {
	n := 8*4 + 1 + 4 + 4
	for _, p := range d.Puts {
		n += 17 + 4 + len(p.Data)
	}
	n += 17 * len(d.Dels)
	return n
}

// decodeObjectRecord parses one canonical object record into a snapshot,
// resolving referenced object IDs through root. PMO records return the
// skeleton snapshot plus the per-page metadata (the caller materializes
// pages). root must return a non-nil ORoot for every non-zero ID.
func decodeObjectRecord(rec []byte, root func(uint64) (*caps.ORoot, error)) (caps.Snapshot, []replPageMeta, error) {
	d := &recDecoder{buf: rec}
	kind := caps.ObjectKind(d.byte())
	ref := func() *caps.ORoot {
		id := d.u64()
		if id == 0 || d.err != nil {
			return nil
		}
		r, err := root(id)
		if err != nil {
			d.fail("%v", err)
			return nil
		}
		return r
	}
	var snap caps.Snapshot
	var metas []replPageMeta
	switch kind {
	case caps.KindCapGroup:
		s := &caps.CapGroupSnap{Name: string(d.bytes())}
		n := d.u64()
		for i := uint64(0); i < n && d.err == nil; i++ {
			s.Slots = append(s.Slots, caps.BackupCapability{Root: ref(), Rights: caps.Right(d.byte())})
		}
		snap = s
	case caps.KindThread:
		s := &caps.ThreadSnap{}
		s.Ctx.PC = d.u64()
		s.Ctx.SP = d.u64()
		for i := range s.Ctx.R {
			s.Ctx.R[i] = d.u64()
		}
		s.Sched.Priority = int(int64(d.u64()))
		s.Sched.Affinity = int(int64(d.u64()))
		s.Sched.TimeSlice = uint32(d.u64())
		s.State = caps.ThreadState(d.byte())
		snap = s
	case caps.KindVMSpace:
		s := &caps.VMSpaceSnap{}
		n := d.u64()
		for i := uint64(0); i < n && d.err == nil; i++ {
			s.Regions = append(s.Regions, caps.VMRegionSnap{
				VABase:    d.u64(),
				NumPages:  d.u64(),
				PMORoot:   ref(),
				PMOOffset: d.u64(),
				Perm:      caps.Right(d.byte()),
			})
		}
		snap = s
	case caps.KindPMO:
		s := &caps.PMOSnap{Type: caps.PMOType(d.byte()), SizePages: d.u64()}
		n := d.u64()
		for i := uint64(0); i < n && d.err == nil; i++ {
			pm := replPageMeta{Idx: d.u64(), Marker: d.byte()}
			if pm.Marker == replMarkSwapped {
				pm.Slot = d.u64()
			}
			metas = append(metas, pm)
		}
		snap = s
	case caps.KindIPCConn:
		s := &caps.IPCConnSnap{ClientRoot: ref(), ServerRoot: ref()}
		s.Buf = d.bytes()
		s.Seq = d.u64()
		snap = s
	case caps.KindNotification:
		s := &caps.NotificationSnap{Count: int(int64(d.u64()))}
		n := d.u64()
		for i := uint64(0); i < n && d.err == nil; i++ {
			s.Waiters = append(s.Waiters, ref())
		}
		snap = s
	case caps.KindIRQNotification:
		s := &caps.IRQNotificationSnap{Line: int(int64(d.u64())), Pending: uint32(d.u64())}
		s.HandlerRoot = ref()
		snap = s
	default:
		return nil, nil, fmt.Errorf("checkpoint: unknown object kind %d in replication record", kind)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return snap, metas, nil
}

// InstallImage materializes a replication image as this manager's backup
// tree and commits it, exactly as if the machine had taken (and committed) a
// local checkpoint at the image's version. The manager must be fresh (no
// committed checkpoint, empty root directory) — failover always installs
// into a newly booted standby, which keeps the operation trivially
// idempotent: a crash mid-install leaves no commit word, and the retry
// starts over on another fresh machine. A swapped page's content goes into
// the standby's own swap device, under the primary's slot.
func (m *Manager) InstallImage(lane *simclock.Lane, img *ReplImage) error {
	if img == nil || img.Version == 0 || img.RootID == 0 {
		return fmt.Errorf("checkpoint: InstallImage with empty image")
	}
	if m.committed != 0 || len(m.roots) != 0 {
		return fmt.Errorf("checkpoint: InstallImage on a non-fresh manager (committed v%d, %d roots)",
			m.committed, len(m.roots))
	}
	// Pass 1: create every ORoot so records can reference each other
	// regardless of graph shape.
	type objRec struct {
		id  uint64
		rec []byte
	}
	var objs []objRec
	for k, rec := range img.Entries {
		if k.Kind != ReplObject {
			continue
		}
		if len(rec) == 0 {
			return fmt.Errorf("checkpoint: empty object record for %d", k.ObjID)
		}
		objs = append(objs, objRec{id: k.ObjID, rec: rec})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })
	for _, o := range objs {
		lane.Charge(m.model.ORootTouch + m.model.SlabAlloc)
		m.addRoot(&caps.ORoot{ObjID: o.id, Kind: caps.ObjectKind(o.rec[0])})
		m.Stats.BackupBytes += alloc.ClassORoot.Size()
	}
	root := func(id uint64) (*caps.ORoot, error) {
		r := m.lookupRoot(id)
		if r == nil {
			return nil, fmt.Errorf("checkpoint: replication record references unknown object %d", id)
		}
		return r, nil
	}
	if _, err := root(img.RootID); err != nil {
		return fmt.Errorf("checkpoint: image root: %w", err)
	}
	// Pass 2: decode records into snapshots and materialize pages.
	v := img.Version
	for _, o := range objs {
		r := m.lookupRoot(o.id)
		snap, metas, err := decodeObjectRecord(o.rec, root)
		if err != nil {
			return fmt.Errorf("checkpoint: object %d: %w", o.id, err)
		}
		lane.Charge(m.model.ChecksumRecord)
		r.Backup[0] = snap
		r.Ver[0] = v
		if ps, ok := snap.(*caps.PMOSnap); ok {
			for _, pm := range metas {
				cp := &caps.CkptPage{Born: v}
				switch pm.Marker {
				case replMarkContent:
					data := img.Entries[ReplKey{ObjID: o.id, Page: pm.Idx, Kind: ReplPage}]
					if len(data) != mem.PageSize {
						return fmt.Errorf("checkpoint: PMO %d page %d: missing or short content entry", o.id, pm.Idx)
					}
					p, err := m.alloc.AllocPageCkpt(lane)
					if err != nil {
						return fmt.Errorf("checkpoint: PMO %d page %d: %w", o.id, pm.Idx, err)
					}
					lane.Charge(m.memory.WriteAt(p, 0, data))
					m.flushPage(lane, p)
					cp.Page[0] = p
					cp.Ver[0] = v
					if ps.Type != caps.PMOEternal {
						m.sealPage(lane, p, checkReplica)
					}
					m.Stats.BackupPages++
				case replMarkSwapped:
					data := img.Entries[ReplKey{ObjID: o.id, Page: pm.Idx, Kind: ReplSwap}]
					if len(data) != mem.PageSize {
						return fmt.Errorf("checkpoint: PMO %d page %d: missing or short swap entry", o.id, pm.Idx)
					}
					m.installSwapSlot(pm.Slot, data)
					cp.Swap = pm.Slot + 1
				case replMarkNoSource:
					// Deliberately empty: the entry exists but no copy
					// survived on the primary either.
				default:
					return fmt.Errorf("checkpoint: PMO %d page %d: unknown marker %d", o.id, pm.Idx, pm.Marker)
				}
				ps.Pages.Set(pm.Idx, cp)
			}
			m.Stats.BackupBytes += 64 * ps.Pages.Nodes()
		} else if !m.cfg.DisableChecksums {
			// Non-PMO records carry the digest a restore will demand.
			r.Sum[0] = recordSum(snap)
		}
	}
	m.rootORoot = m.lookupRoot(img.RootID)
	m.savedNextID = img.NextID
	// Drain the written pages, then commit as TakeCheckpoint step ❹ does.
	m.fence(lane)
	m.commitVersion(lane, v)
	return nil
}
