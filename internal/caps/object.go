// Package caps implements the capability system of the TreeSLS microkernel:
// the seven capability-referred object kinds of Table 1 (cap group, thread,
// VM space, PMO, IPC connection, notification, IRQ notification), the
// capability tree that groups them, and the ORoot indirection structure the
// checkpoint manager uses to find an object's backups (§4.1).
//
// The design rule of the paper — "the capability tree essentially captures
// all state of the running system" — is enforced structurally here: every
// piece of kernel state either hangs off the tree (and is checkpointed by
// walking it) or is explicitly derived state that the restore path rebuilds
// (scheduler queues, page tables).
package caps

import "fmt"

// ObjectKind identifies a capability-referred object type (Table 1).
type ObjectKind uint8

// Object kinds, in the order of Table 1.
const (
	KindCapGroup ObjectKind = iota
	KindThread
	KindVMSpace
	KindPMO
	KindIPCConn
	KindNotification
	KindIRQNotification
	numKinds
)

// NumKinds is the number of object kinds.
const NumKinds = int(numKinds)

// String names the kind as in the paper's tables ("C.G.", "Thread", ...).
func (k ObjectKind) String() string {
	switch k {
	case KindCapGroup:
		return "CapGroup"
	case KindThread:
		return "Thread"
	case KindVMSpace:
		return "VMSpace"
	case KindPMO:
		return "PMO"
	case KindIPCConn:
		return "IPCConn"
	case KindNotification:
		return "Notification"
	case KindIRQNotification:
		return "IRQNotification"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// Right is a capability access-right bit set.
type Right uint8

// Capability rights.
const (
	RightRead Right = 1 << iota
	RightWrite
	RightExec
	RightGrant

	RightsAll = RightRead | RightWrite | RightExec | RightGrant
)

// Object is the interface of every capability-referred kernel object.
type Object interface {
	// Kind returns the object's kind.
	Kind() ObjectKind
	// ID returns the object's stable identity (unique within a tree's
	// lifetime, stable across checkpoints and restores).
	ID() uint64
	// ORoot returns the object's capability object root, or nil if the
	// object has never been checkpointed.
	ORoot() *ORoot
	// Dirty reports whether the object changed since its last checkpoint.
	Dirty() bool

	setORoot(r *ORoot)
	clearDirty()
	header() *objHeader
}

// objHeader is embedded in every object implementation.
type objHeader struct {
	kind  ObjectKind
	id    uint64
	oroot *ORoot
	dirty bool
}

// newHeader returns the header of a new object of kind k with the given ID:
// dirty, and bound to no root.
func newHeader(k ObjectKind, id uint64) objHeader {
	return objHeader{kind: k, id: id, dirty: true}
}

func (h *objHeader) Kind() ObjectKind   { return h.kind }
func (h *objHeader) ID() uint64         { return h.id }
func (h *objHeader) ORoot() *ORoot      { return h.oroot }
func (h *objHeader) Dirty() bool        { return h.dirty }
func (h *objHeader) setORoot(r *ORoot)  { h.oroot = r }
func (h *objHeader) clearDirty()        { h.dirty = false }
func (h *objHeader) header() *objHeader { return h }

// MarkDirty flags the object as modified since the last checkpoint. Every
// state-mutating method calls it; kernel code that pokes object state
// directly must call it too.
func (h *objHeader) MarkDirty() { h.dirty = true }

// Snapshot is a consistent copy of one object's state, stored in the backup
// capability tree. Each object kind has its own snapshot type; the checkpoint
// manager treats them uniformly through this interface.
type Snapshot interface {
	// SnapKind returns the kind of the snapshotted object.
	SnapKind() ObjectKind
}

// BindORoot links object o to its root r (checkpoint-manager use).
func BindORoot(o Object, r *ORoot) { o.setORoot(r) }

// ClearDirty resets the object's dirty flag after it has been checkpointed.
func ClearDirty(o Object) { o.clearDirty() }

// ORoot is the capability object root (§4.1): the per-unique-object
// structure recording the runtime object and its backups, so that an object
// referenced from many cap groups is checkpointed once per round.
//
// Non-PMO objects keep two backup snapshots used alternately, so that a
// consistent one always exists while the other is being written (§4.2). PMO
// page backups are versioned per page in the checkpointed radix tree instead;
// the PMO's snapshot here covers only its radix-tree skeleton.
type ORoot struct {
	// ObjID is the identity of the object this root describes.
	ObjID uint64
	// Kind of the object.
	Kind ObjectKind
	// Runtime points to the runtime object. Nothing clears it at a crash:
	// it then points at the crashed object, and a restore resets that
	// object in place (Revive) and fills it from the backup, so a pointer
	// to a runtime object or to one of its PMO's page slots kept across a
	// crash observes the restored object. Nothing outside tests keeps
	// one: the kernel rebuilds its processes and page tables, and the
	// checkpoint manager's active list and extsync's cached PMO are
	// dropped at restore. Runtime is nil only for a root no runtime
	// object was ever bound to, such as one a standby's InstallImage
	// filed.
	Runtime Object

	// Backup holds up to two snapshots; Ver gives each snapshot's
	// checkpoint version (0 = empty). Sum is the checkpoint manager's
	// content digest over each snapshot record, verified before a restore
	// trusts the record (media-fault tolerance; zero = no digest).
	Backup [2]Snapshot
	Ver    [2]uint64
	Sum    [2]uint64

	// seenInRound is the checkpoint round that last visited this root
	// (guards against double work when an object is referenced by
	// multiple cap groups in the same round).
	seenInRound uint64

	// History optionally retains older snapshots for the eidetic
	// extension (§8): version -> snapshot, managed by the checkpoint
	// manager when eidetic mode is on.
	History []HistoricSnapshot

	// Digest caches obs/audit's hash of the committed snapshot record the
	// backup digests last folded for this root. It is host-only: nothing
	// the checkpoint manager decides reads it.
	Digest RecordDigest
}

// RecordDigest caches one hash of a snapshot record, keyed by the snapshot
// and its version, the way mem caches a page's hash per write generation.
// The key is exact: the checkpoint manager rewrites a snapshot struct in
// place only under a new version, and a version number re-run after a
// crash scrubbed it snapshots into a fresh struct, which cannot take the
// address of the struct the cache still holds. Its zero value is empty.
type RecordDigest struct {
	snap Snapshot
	ver  uint64
	sum  uint64
}

// Of returns the hash of snap at version ver: the cached one when the
// cache holds that very snapshot at that version, else hash(snap), which
// it then keeps.
func (c *RecordDigest) Of(snap Snapshot, ver uint64, hash func(Snapshot) uint64) uint64 {
	if c.snap != snap || c.ver != ver {
		c.snap, c.ver, c.sum = snap, ver, hash(snap)
	}
	return c.sum
}

// HistoricSnapshot is one retained (version, snapshot) pair in eidetic mode.
type HistoricSnapshot struct {
	Version uint64
	Snap    Snapshot
}

// SeenInRound reports whether the root was already visited in checkpoint
// round r.
func (r *ORoot) SeenInRound(round uint64) bool { return r.seenInRound == round }

// MarkSeen records that round r visited the root.
func (r *ORoot) MarkSeen(round uint64) { r.seenInRound = round }

// LatestCommitted returns the newest snapshot with version <= committed and
// its version, or (nil, 0) if none exists. Snapshots newer than committed
// belong to an in-flight checkpoint that never committed and are ignored —
// this is the versioning rule of §4.2 applied to kernel objects.
func (r *ORoot) LatestCommitted(committed uint64) (Snapshot, uint64) {
	var best Snapshot
	var bestVer uint64
	for i := 0; i < 2; i++ {
		if r.Backup[i] != nil && r.Ver[i] <= committed && r.Ver[i] > bestVer {
			best, bestVer = r.Backup[i], r.Ver[i]
		}
	}
	return best, bestVer
}

// WriteSlot returns the backup slot index to (over)write for a checkpoint at
// version v: the slot NOT holding the newest committed snapshot.
func (r *ORoot) WriteSlot(committed uint64) int {
	_, bestVer := r.LatestCommitted(committed)
	for i := 0; i < 2; i++ {
		if r.Backup[i] != nil && r.Ver[i] == bestVer && bestVer != 0 {
			return 1 - i
		}
	}
	return 0
}
