// Package checkpoint implements the TreeSLS checkpoint manager (§3-§4): the
// in-kernel, failure-resilient module that takes whole-system checkpoints of
// the capability tree onto NVM and restores the system from them after a
// power failure.
//
// The manager is deliberately *not* part of the capability tree (that would
// be a bootstrapping problem). Its state — the object-root directory, backup
// snapshots, checkpointed radix trees, the global version number — lives in
// the persistent world: it survives machine crashes, modelling structures
// kept in NVM, and its in-flight mutations are protected by the allocator's
// redo/undo journal.
//
// Checkpointing follows Figure 5: ❶ IPI all cores into quiescence, ❷ the
// leader walks the runtime capability tree and snapshots dirty objects into
// the backup tree, ❸ the other cores run hybrid copy (stop-and-copy of dirty
// DRAM-cached hot pages, NVM<->DRAM migration) in parallel, ❹ the global
// version number is bumped atomically (the commit point), ❺ cores resume,
// ❻ later stores to write-protected pages fault and copy-on-write into the
// backup tree, ❼ restore revives the runtime tree from the backup tree.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"slices"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// CopyMethod selects how memory pages are checkpointed (§4.3.1, Figure 7).
type CopyMethod uint8

const (
	// MethodCOW is TreeSLS's default: pages are write-protected during
	// the STW pause and copied lazily on the first post-checkpoint write.
	// On NVM the checkpoint is already consistent when the pause ends,
	// because the unmodified runtime page doubles as the backup.
	MethodCOW CopyMethod = iota
	// MethodStopAndCopy copies every dirty page during the STW pause
	// (the classic approach of Figure 7): simple, no runtime faults, but
	// the pause grows with the dirty set and every page needs a real
	// backup copy.
	MethodStopAndCopy
)

// String names the method.
func (m CopyMethod) String() string {
	if m == MethodStopAndCopy {
		return "stop-and-copy"
	}
	return "copy-on-write"
}

// Config tunes the checkpoint manager.
type Config struct {
	// Method selects the page checkpointing strategy.
	Method CopyMethod
	// HybridCopy enables the hybrid page-copy policy of §4.3.2: hot-page
	// tracking, NVM->DRAM migration, and parallel stop-and-copy during
	// the STW pause. With it off, every page is checkpointed by pure
	// copy-on-write.
	HybridCopy bool
	// HotThreshold is the number of write faults after which a page is
	// appended to the active page list.
	HotThreshold uint16
	// DemoteAfter is the number of consecutive checkpoint rounds a cached
	// page may stay clean before being migrated back to NVM.
	DemoteAfter uint16
	// EideticVersions > 0 retains that many historical snapshots per
	// object (§8 "Extending to Eidetic System"). 0 keeps only the two
	// alternating backups.
	EideticVersions int
	// Replicas > 1 keeps extra copies of backup pages with checksums and
	// recovers from a corrupted primary (§8 "Data Reliability").
	Replicas int
	// ParallelWalk partitions the capability-tree walk of step ❷ into
	// subtree work units claimed by every core lane through a
	// deterministic work queue (walk.go). With it off — or on a
	// single-core machine — the leader runs the serial reference walk.
	ParallelWalk bool
	// DeferCommitPublish splits step ❹ into a prepare (everything
	// durable and fenced, commit word untouched) and a later explicit
	// PublishCommit (cut.go). It is the shard-side half of the cluster
	// consistent-cut protocol: a coordinator announces a cluster cut
	// between the two, so a crash before the announcement rolls every
	// shard back to the previous cut while a crash after it rolls the
	// laggards forward.
	DeferCommitPublish bool
	// DisableChecksums turns off the per-page and per-record backup
	// digests that restore and the scrubber verify. It exists ONLY as the
	// ablation baseline for the media-fault campaign (to demonstrate that
	// without checksums, silent NVM rot reaches restored state
	// undetected); production configurations keep checksums on.
	DisableChecksums bool
}

// DefaultConfig mirrors the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		HybridCopy:   true,
		HotThreshold: 3,
		DemoteAfter:  8,
		ParallelWalk: true,
	}
}

// Report describes one stop-the-world checkpoint (the quantities behind
// Figure 9 and Table 4).
type Report struct {
	// Version is the version this checkpoint committed.
	Version uint64
	// Full reports whether this was a first (full) checkpoint round for
	// most objects (version 1).
	Full bool

	// IPIWait is the leader's cost to force and await quiescence (step ❶).
	IPIWait simclock.Duration
	// CapTree is the leader's cost to checkpoint the capability tree (❷).
	CapTree simclock.Duration
	// PerKind breaks CapTree down by object kind (Figure 9b).
	PerKind [caps.NumKinds]simclock.Duration
	// PerKindCount counts objects checkpointed per kind this round.
	PerKindCount [caps.NumKinds]int
	// Others covers commit, allocator-log truncation, callbacks (❹).
	Others simclock.Duration
	// Release is the portion of Others spent in the registered
	// external-synchrony callbacks (§5): the release-on-commit hook that
	// hands buffered responses to the NIC once this version's commit
	// covers the state that produced them.
	Release simclock.Duration
	// HybridCopy is the maximum per-core time spent in parallel
	// stop-and-copy/migration (❸; the right-hand bars of Figure 9a).
	HybridCopy simclock.Duration
	// STWTotal is the full pause experienced by application cores.
	STWTotal simclock.Duration

	// Parallel-walk accounting. WalkWork is the total charged walk time
	// summed over all lanes, net of barrier waits — for the serial walk
	// it equals CapTree, for the parallel walk it exceeds the serial
	// figure by exactly the modeled queue overhead
	// (units·(WQPublish+WQClaim) + steals·WQSteal). WalkUnits and
	// WalkSteals are zero when the serial reference walk ran.
	WalkWork   simclock.Duration
	WalkUnits  int // subtree work units the partitioner produced
	WalkSteals int // units claimed by a lane other than their home lane

	// Page accounting for Table 4.
	PagesStopCopied int // pages copied in-pause under MethodStopAndCopy
	PagesMarkedRO   int // newly write-protected NVM pages
	DirtyDRAMCopied int // dirty cached pages stop-and-copied
	CachedPages     int // pages cached in DRAM after this round
	Migrated        int // NVM->DRAM migrations this round
	Demoted         int // DRAM->NVM demotions this round
	FaultsLastEpoch int // COW faults since the previous checkpoint
}

// ObjTimeStats tracks min/max per-object checkpoint/restore times for one
// object kind (Table 3).
type ObjTimeStats struct {
	MinIncr, MaxIncr       simclock.Duration
	MinFull, MaxFull       simclock.Duration
	MinRestore, MaxRestore simclock.Duration
	NIncr, NFull, NRestore int
}

func (s *ObjTimeStats) addIncr(d simclock.Duration) {
	if s.NIncr == 0 || d < s.MinIncr {
		s.MinIncr = d
	}
	if d > s.MaxIncr {
		s.MaxIncr = d
	}
	s.NIncr++
}

func (s *ObjTimeStats) addFull(d simclock.Duration) {
	if s.NFull == 0 || d < s.MinFull {
		s.MinFull = d
	}
	if d > s.MaxFull {
		s.MaxFull = d
	}
	s.NFull++
}

func (s *ObjTimeStats) addRestore(d simclock.Duration) {
	if s.NRestore == 0 || d < s.MinRestore {
		s.MinRestore = d
	}
	if d > s.MaxRestore {
		s.MaxRestore = d
	}
	s.NRestore++
}

// Stats accumulates manager activity across rounds.
type Stats struct {
	Checkpoints uint64
	COWFaults   uint64
	// PagesCopied counts the backup copies copyBackup makes, on five
	// paths: the COW fault, stop-and-copy, the dirty-DRAM copy, the
	// demotion and the scrub repair. checkpoint.pages_copied counts them
	// too.
	PagesCopied   uint64
	BackupPages   int // live backup pages allocated (checkpoint size, pages)
	BackupBytes   int // backup object space (snapshots, radix nodes)
	Migrations    uint64
	Demotions     uint64
	Restores      uint64
	RootsSwept    uint64
	PerKind       [caps.NumKinds]ObjTimeStats
	EpochFaults   int // COW faults in the current epoch (reset per round)
	ReplicaRepair uint64

	// Robustness counters of the relaxed-persistency (ADR) fault model.
	// TornLines/DroppedLines mirror the device's cumulative crash-damage
	// counts as of the last restore; DegradedRestores counts pages whose
	// newest backup was unrepairable and which fell back to an older
	// committed version.
	TornLines        uint64
	DroppedLines     uint64
	DegradedRestores uint64

	// Media-fault tolerance counters. LostPages counts pages restored as
	// zero-filled frames because no retained version survived (each is
	// named in the restore manifest); DegradedObjects counts object
	// records whose digest failed and whose restore fell back to the
	// older snapshot slot; MetaRepairs counts commit-record and journal
	// regions rebuilt from their mirror copy. The Scrub* family tracks
	// the between-checkpoint scrubber: scans run, backup pages verified,
	// pages repaired in place, corrupt fallback slots retired, and
	// corruptions scrub could only report (restore resolves them).
	LostPages         uint64
	DegradedObjects   uint64
	MetaRepairs       uint64
	ScrubScans        uint64
	ScrubPagesChecked uint64
	ScrubRepairs      uint64
	ScrubQuarantined  uint64
	ScrubUnrepairable uint64
}

// Callback hooks external-synchrony services (§5) into the checkpoint cycle.
type Callback interface {
	// OnCheckpoint runs at the end of each checkpoint (after commit,
	// before cores resume): the service may now release externally
	// visible effects that depend on state up to this version.
	OnCheckpoint(version uint64, lane *simclock.Lane)
	// OnRestore runs at the end of recovery with the restored version.
	OnRestore(version uint64, lane *simclock.Lane)
}

// Manager is the checkpoint manager.
type Manager struct {
	cfg    Config
	memory *mem.Memory
	model  *simclock.CostModel
	alloc  *alloc.Allocator
	jrnl   *journal.Journal

	// ---- Persistent world (survives Crash) ----

	// committed is the global version number in the global metadata area;
	// bumping it is the checkpoint commit point (Figure 5 ❹).
	committed uint64
	// rootORoot anchors the backup capability tree.
	rootORoot *caps.ORoot
	// roots is the ORoot directory, in strictly ascending object ID: the
	// audits, the scrubber and the sweep iterate it without sorting, and
	// lookupRoot finds an ID by binary search. addRoot and the sweep are
	// its only writers.
	roots []*caps.ORoot
	// savedNextID is the tree's ID counter as of the last commit.
	savedNextID uint64
	// integrity files one entry per NVM frame on backup duty, under its
	// frame number: the frame's content digest, and its replica (sums.go).
	// sealPage writes an entry whenever the checkpoint protocol
	// (re)establishes a frame as a restore source, every restore read and
	// scrub pass verifies it, and forgetFrame removes it. It models
	// per-page checksums stored beside the CkptPage metadata in NVM
	// (metadata is Go-modeled and therefore atomic, like the rest of the
	// backup tree's bookkeeping). Each digest also keeps the frame's
	// write generation at the time of hashing, so that verification
	// rehashes only a page written since.
	integrity map[uint32]frameSum
	// swap is the swap device of memory over-commitment (§8, swap.go).
	swap swapState

	// ---- Runtime world (rebuilt on restore) ----

	tree      *caps.Tree
	active    []pageRef // dual-function active page list (§4.3.2)
	callbacks []Callback
	cached    int // pages currently in DRAM
	// deferredFrees holds runtime frames whose release must wait for the
	// next checkpoint commit: freeing them immediately would let a
	// checkpoint-owned allocation (which recovery does not roll back)
	// reuse a frame that the post-crash rollback needs to re-allocate.
	// The list is runtime state: a crash drops it, leaking the frames
	// (bounded by one epoch) rather than risking reuse.
	deferredFrees []mem.PageID
	// pending records a round prepared under Config.DeferCommitPublish
	// whose commit word has not been published yet (cut.go). Volatile
	// by design: a crash drops it, and the prepared round rolls back at
	// restore exactly like a round crashed just before its commit word.
	pending pendingCommit
	// walkStamp is the id of the current checkpoint tree walk, used for
	// the ORoot seen-markers. It is bumped per TakeCheckpoint *attempt*
	// and never reused — the version number ("round") cannot serve here,
	// because after a crashed round rolls back the retry reuses the same
	// round number, and markers left by the interrupted walk would make
	// the retry skip dirty objects and commit their stale snapshots.
	walkStamp uint64

	// Host-side scratch, reused every round so that a warm, clean round
	// allocates nothing but its journal record: the walk's children
	// stack (checkpointObject), the partitioned unit list and work queue
	// of the parallel walk, its per-lane clock marks, the hybrid-copy
	// worker lanes and their entry times, and restore's reference stack,
	// discovery order and discovered-ID set. None of it is simulated
	// state.
	kids       []caps.Object
	part       walkPartition
	wq         simclock.WorkQueue
	marks      []walkMark
	workers    []*simclock.Lane
	entered    []simclock.Time
	refs       []*caps.ORoot
	order      []*caps.ORoot
	discovered caps.IDSet

	// obs is the observability layer (nil = disabled; all hooks are
	// zero-cost no-ops then). met holds pre-resolved metric handles so
	// hot paths never do registry lookups.
	obs *obs.Observer
	met ckptMetrics

	// LastReport is the report of the most recent checkpoint.
	LastReport Report
	// LastManifest describes the outcome of the most recent restore:
	// every page that could not be rebuilt bit-identically is listed as
	// degraded or lost. Nil until the first restore.
	LastManifest *RestoreManifest
	// restoreInFlight marks a restore that began but has not completed:
	// if the next restore finds it still set (the attempt was itself
	// crashed), the manifest is carried over instead of reset, so entries
	// recorded by the interrupted attempt — whose slot rewrites may
	// already be durable — are not forgotten.
	restoreInFlight bool
	// Stats accumulates across rounds.
	Stats Stats
}

// ckptMetrics are the manager's pre-resolved metric handles. Every field is
// nil when metrics are disabled — the nil-receiver methods make each update
// a free no-op.
type ckptMetrics struct {
	stw, ipi, capTree, hybrid, commit, restore *obs.Histogram
	walkWork                                   *obs.Histogram

	cowFaults, pagesCopied, stopCopied *obs.Counter
	migrations, demotions              *obs.Counter
	restores, degraded, lostPages      *obs.Counter
	walkUnits, walkSteals              *obs.Counter
	dirtySet, cachedPages, activeList  *obs.Gauge
}

// SetObserver attaches the observability layer. Checkpoint rounds emit
// per-phase spans and page-level instants on the core lanes; the registry
// gains the Figure 9/Table 4 quantities as counters, gauges and pause-time
// histograms.
func (m *Manager) SetObserver(o *obs.Observer) {
	m.obs = o
	if !o.MetricsOn() {
		return
	}
	r := o.Metrics
	m.met = ckptMetrics{
		stw:         r.Histogram("checkpoint.stw_ns", nil),
		ipi:         r.Histogram("checkpoint.ipi_ns", nil),
		capTree:     r.Histogram("checkpoint.captree_ns", nil),
		walkWork:    r.Histogram("checkpoint.walk_work_ns", nil),
		hybrid:      r.Histogram("checkpoint.hybrid_ns", nil),
		commit:      r.Histogram("checkpoint.commit_ns", nil),
		restore:     r.Histogram("checkpoint.restore_ns", nil),
		cowFaults:   r.Counter("checkpoint.cow_faults"),
		pagesCopied: r.Counter("checkpoint.pages_copied"),
		stopCopied:  r.Counter("checkpoint.pages_stop_copied"),
		migrations:  r.Counter("checkpoint.migrations"),
		demotions:   r.Counter("checkpoint.demotions"),
		restores:    r.Counter("checkpoint.restores"),
		degraded:    r.Counter("checkpoint.degraded_restores"),
		lostPages:   r.Counter("checkpoint.lost_pages"),
		walkUnits:   r.Counter("checkpoint.walk_units"),
		walkSteals:  r.Counter("checkpoint.walk_steals"),
		dirtySet:    r.Gauge("checkpoint.dirty_set_pages"),
		cachedPages: r.Gauge("checkpoint.cached_pages"),
		activeList:  r.Gauge("checkpoint.active_list_len"),
	}
	r.GaugeFunc("checkpoint.committed_version", func() int64 { return int64(m.committed) })
	r.GaugeFunc("checkpoint.backup_pages", func() int64 { return int64(m.Stats.BackupPages) })
	r.GaugeFunc("checkpoint.backup_bytes", func() int64 { return int64(m.Stats.BackupBytes) })
	r.GaugeFunc("checkpoint.roots_swept", func() int64 { return int64(m.Stats.RootsSwept) })
	r.GaugeFunc("checkpoint.checkpoints", func() int64 { return int64(m.Stats.Checkpoints) })
	r.GaugeFunc("checkpoint.degraded_objects", func() int64 { return int64(m.Stats.DegradedObjects) })
	r.GaugeFunc("checkpoint.meta_repairs", func() int64 { return int64(m.Stats.MetaRepairs) })
	r.GaugeFunc("checkpoint.scrub_scans", func() int64 { return int64(m.Stats.ScrubScans) })
	r.GaugeFunc("checkpoint.scrub_pages_checked", func() int64 { return int64(m.Stats.ScrubPagesChecked) })
	r.GaugeFunc("checkpoint.scrub_repairs", func() int64 { return int64(m.Stats.ScrubRepairs) })
	r.GaugeFunc("checkpoint.scrub_quarantined", func() int64 { return int64(m.Stats.ScrubQuarantined) })
}

// traceOn reports whether span/instant recording is enabled.
func (m *Manager) traceOn() bool { return m.obs.TraceOn() }

// pageRef names one tracked page on the active list.
type pageRef struct {
	pmo  *caps.PMO
	snap *caps.PMOSnap
	idx  uint64
}

// New creates a manager over the machine's memory and allocator, initially
// tracking tree as the runtime capability tree.
func New(cfg Config, memory *mem.Memory, al *alloc.Allocator, tree *caps.Tree) *Manager {
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = DefaultConfig().HotThreshold
	}
	if cfg.DemoteAfter == 0 {
		cfg.DemoteAfter = DefaultConfig().DemoteAfter
	}
	if cfg.Method == MethodStopAndCopy {
		// Hybrid copy presupposes copy-on-write fault tracking.
		cfg.HybridCopy = false
	}
	return &Manager{
		cfg:       cfg,
		memory:    memory,
		model:     memory.Model(),
		alloc:     al,
		jrnl:      al.Journal(),
		integrity: make(map[uint32]frameSum),
		tree:      tree,
	}
}

// Config returns the active configuration.
func (m *Manager) Config() Config { return m.cfg }

// CommittedVersion returns the version of the newest committed checkpoint.
func (m *Manager) CommittedVersion() uint64 { return m.committed }

// HasCheckpoint reports whether at least one checkpoint has committed.
func (m *Manager) HasCheckpoint() bool { return m.committed > 0 }

// Tree returns the runtime capability tree currently tracked.
func (m *Manager) Tree() *caps.Tree { return m.tree }

// Register adds an external-synchrony callback (a user-space driver's
// checkpoint/restore hooks, §5).
func (m *Manager) Register(cb Callback) { m.callbacks = append(m.callbacks, cb) }

// CachedPages reports how many pages are currently cached in DRAM.
func (m *Manager) CachedPages() int { return m.cached }

// deferFreePage queues a runtime NVM frame for release at the next
// checkpoint commit. See deferredFrees for why frees must not happen
// mid-epoch.
func (m *Manager) deferFreePage(p mem.PageID) {
	m.deferredFrees = append(m.deferredFrees, p)
}

// PurgePMO releases the runtime resources of a PMO that is being removed
// from the capability tree (process exit / revocation): DRAM-cached frames
// go back to the DRAM pool immediately (volatile), NVM runtime frames are
// deferred to the next commit, and the hot-page list forgets the object.
// The checkpointed backups are reclaimed later by the unreachable-root
// sweep, once a committed round proves nothing references them.
func (m *Manager) PurgePMO(pmo *caps.PMO) {
	pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
		switch {
		case s.SwappedOut || s.Page.IsNil():
		case s.Page.Kind == mem.KindDRAM:
			m.memory.FreeDRAM(s.Page)
			m.cached--
		default:
			m.deferFreePage(s.Page)
		}
		return true
	})
	keep := m.active[:0]
	for _, ref := range m.active {
		if ref.pmo != pmo {
			keep = append(keep, ref)
		}
	}
	m.active = keep
}

// ActiveListLen reports the length of the active page list.
func (m *Manager) ActiveListLen() int { return len(m.active) }

// ---- Auditor accessors -----------------------------------------------------

// RootORoot returns the ORoot anchoring the backup capability tree (nil
// before the first checkpoint).
func (m *Manager) RootORoot() *caps.ORoot { return m.rootORoot }

// ForEachRoot visits every ORoot in the directory in ascending object-ID
// order — a deterministic iteration for digests and audits. fn must not
// add roots to or remove roots from the directory.
func (m *Manager) ForEachRoot(fn func(*caps.ORoot)) {
	for _, r := range m.roots {
		fn(r)
	}
}

// searchRoot returns the directory position of object id: where its root is
// filed, or where one would be inserted.
func (m *Manager) searchRoot(id uint64) (int, bool) {
	return slices.BinarySearchFunc(m.roots, id, func(e *caps.ORoot, id uint64) int {
		return cmp.Compare(e.ObjID, id)
	})
}

// lookupRoot returns the root filed under object id, or nil.
func (m *Manager) lookupRoot(id uint64) *caps.ORoot {
	if i, found := m.searchRoot(id); found {
		return m.roots[i]
	}
	return nil
}

// addRoot files r in the directory under its object ID, replacing any root
// already filed there. A round resolves the objects created since the last
// one, whose IDs lie above every filed root, so r usually appends. Two
// cases land lower: the parallel walk resolves a round's new objects in
// lane-interleaved order, and a restore rolls the tree's ID counter back to
// the last commit while the crashed round's stale roots stay filed until
// the next sweep, so a new ID can land below, or on, a stale one.
func (m *Manager) addRoot(r *caps.ORoot) {
	if n := len(m.roots); n == 0 || m.roots[n-1].ObjID < r.ObjID {
		m.roots = append(m.roots, r)
		return
	}
	i, found := m.searchRoot(r.ObjID)
	if found {
		m.roots[i] = r
		return
	}
	m.roots = slices.Insert(m.roots, i, r)
}

// DurableVersion re-reads the commit word from NVM: the version a crash at
// this instant would recover to. Invariant: equals CommittedVersion()
// between operations.
func (m *Manager) DurableVersion() uint64 { return m.readCommitWord() }

// ---- ADR persistence-protocol helpers --------------------------------------
//
// All of these are free no-ops under eADR (the mem primitives return zero
// and touch nothing), so the default configuration's timings and outputs
// are bit-identical to the seed.

// flushPage issues write-backs for a page the checkpoint protocol just
// wrote (a backup copy, a rule-2 runtime source, a replica). The matching
// fence is the round's single pre-commit fence — or an explicit fence()
// on runtime paths like the write-fault handler.
func (m *Manager) flushPage(lane *simclock.Lane, p mem.PageID) {
	d := m.memory.FlushPage(p)
	if lane != nil {
		lane.Charge(d)
		// Only meaningful under ADR; under eADR flushes are free no-ops
		// and tracing them would just be noise.
		if m.traceOn() && m.memory.Mode() == mem.ModeADR {
			m.obs.Trace.Instant(lane.ID(), lane.Now(), "persist", "clwb-page",
				obs.I("frame", int64(p.Frame)), obs.I("kind", int64(p.Kind)))
		}
	}
}

// fence drains all outstanding write-backs to durability.
func (m *Manager) fence(lane *simclock.Lane) {
	d := m.memory.Fence()
	if lane != nil {
		lane.Charge(d)
		if m.traceOn() && m.memory.Mode() == mem.ModeADR {
			m.obs.Trace.Instant(lane.ID(), lane.Now(), "persist", "sfence")
		}
	}
}

// commitWordPage and commitMirrorPage are the NVM locations of the global
// version record's primary and mirror copies, each at offset 0.
func commitWordPage() mem.PageID {
	return mem.PageID{Kind: mem.KindNVM, Frame: mem.CommitMetaFrame}
}

func commitMirrorPage() mem.PageID {
	return mem.PageID{Kind: mem.KindNVM, Frame: mem.CommitMirrorFrame}
}

// The commit record is 16 bytes — the version word plus a check word — kept
// twice: the primary on the commit metadata frame and a mirror on its own
// frame, so poisoning one whole frame leaves a copy. The check word turns
// any torn, rotten or stale-mixed record into a *detected* failure instead
// of a bogus version; the mirror turns a detected primary failure into a
// recoverable one.
const commitRecSize = 16

// commitCheck derives the check word guarding commit-record value v: the
// FNV-1a hash of v's bytes. Unlike the page checksums it is stored in NVM,
// so it is part of the durable commit-record format and keeps its hash.
func commitCheck(v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return mem.FoldFNV(mem.FNVOffset, b[:])
}

// persistCommitWord publishes version v as the committed global version.
// The primary record is written with plain store + write-back + fence —
// under ADR its line can still be dropped at a crash (rolling the round
// back, the protocol's legal outcome) or torn (caught by the check word).
// The mirror is written strictly AFTER the primary's fence: it may lag the
// primary (restore and the scrubber re-sync it) but never lead it, so
// falling back to the mirror can only ever re-commit an older version —
// never invent a newer one.
func (m *Manager) persistCommitWord(lane *simclock.Lane, v uint64) {
	var b [commitRecSize]byte
	binary.LittleEndian.PutUint64(b[0:8], v)
	binary.LittleEndian.PutUint64(b[8:16], commitCheck(v))
	p := commitWordPage()
	m.memory.WriteRaw(p, 0, b[:])
	d := m.memory.Flush(p, 0, commitRecSize) + m.memory.Fence()
	d += m.memory.PersistAtomic(commitMirrorPage(), 0, b[:])
	if lane != nil {
		lane.Charge(d)
	}
}

// commitVersion commits round v (Figure 5 ❹) once the caller has fenced
// its pages and records. The journal guards the commit word and the
// allocator-log truncation it licenses. Publishing the word IS the commit
// point: an 8-byte word persists or drops whole under ADR, so a torn commit
// is no commit and recovery rolls back cleanly. The in-memory version
// follows the word at once; oracles and pre-crash hooks read it there.
func (m *Manager) commitVersion(lane *simclock.Lane, v uint64) {
	rec := m.jrnl.Begin(lane, journal.OpCheckpointCommit, v)
	m.persistCommitWord(lane, v)
	m.committed = v
	m.jrnl.MarkApplied(lane, rec)
	m.alloc.TruncateLog()
	m.jrnl.Commit(lane, rec)
	lane.Charge(m.model.CommitCheckpoint)
}

// readCommitSlot reads and validates the copy of the commit record on page
// p. A poisoned line or a failed check word returns ok=false.
func (m *Manager) readCommitSlot(p mem.PageID) (uint64, bool) {
	if m.memory.CheckRead(p, 0, commitRecSize) != nil {
		return 0, false
	}
	var b [commitRecSize]byte
	m.memory.ReadRaw(p, 0, b[:])
	v := binary.LittleEndian.Uint64(b[0:8])
	if binary.LittleEndian.Uint64(b[8:16]) != commitCheck(v) {
		return 0, false
	}
	return v, true
}

// rewriteCommitSlot rebuilds the copy of the commit record on page p in
// place, clearing any poison on its line.
func (m *Manager) rewriteCommitSlot(p mem.PageID, v uint64) {
	var b [commitRecSize]byte
	binary.LittleEndian.PutUint64(b[0:8], v)
	binary.LittleEndian.PutUint64(b[8:16], commitCheck(v))
	m.memory.PersistAtomic(p, 0, b[:])
	m.memory.ClearPoison(p, 0, commitRecSize)
}

// readCommitWord returns the durable committed version from NVM: the
// primary record when it validates, else the mirror (repairing the primary
// from it), else zero — an unreadable commit record fails closed to "no
// checkpoint" rather than guessing a version.
func (m *Manager) readCommitWord() uint64 {
	if v, ok := m.readCommitSlot(commitWordPage()); ok {
		return v
	}
	if v, ok := m.readCommitSlot(commitMirrorPage()); ok {
		m.rewriteCommitSlot(commitWordPage(), v)
		m.Stats.MetaRepairs++
		return v
	}
	return 0
}

// scrubCommitRecord re-establishes the commit record's dual-copy
// redundancy: a dead or lagging copy is rebuilt from its intact twin. The
// primary wins a divergence (the mirror may lag, never lead). Returns the
// number of copies rewritten.
func (m *Manager) scrubCommitRecord() int {
	pv, pok := m.readCommitSlot(commitWordPage())
	mv, mok := m.readCommitSlot(commitMirrorPage())
	switch {
	case pok && (!mok || mv != pv):
		m.rewriteCommitSlot(commitMirrorPage(), pv)
		return 1
	case !pok && mok:
		m.rewriteCommitSlot(commitWordPage(), mv)
		return 1
	}
	return 0
}

// resolve returns (creating if needed) the ORoot for object o, charging the
// lookup/creation costs to lane.
func (m *Manager) resolve(lane *simclock.Lane, o caps.Object) *caps.ORoot {
	if r := o.ORoot(); r != nil {
		return r
	}
	lane.Charge(m.model.ORootTouch + m.model.SlabAlloc)
	r := &caps.ORoot{ObjID: o.ID(), Kind: o.Kind(), Runtime: o}
	m.addRoot(r)
	caps.BindORoot(o, r)
	m.Stats.BackupBytes += alloc.ClassORoot.Size()
	return r
}
