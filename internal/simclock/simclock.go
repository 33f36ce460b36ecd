// Package simclock provides the simulated time base and the calibrated cost
// model used by the whole TreeSLS machine simulation.
//
// The reproduction does not measure wall-clock time: the paper's numbers come
// from bare-metal hardware (Xeon + Optane PM) that is unavailable here.
// Instead, every micro-operation in the simulator — copying a page, taking a
// page-fault trap, sending an IPI, allocating a slab slot — charges a cost in
// simulated nanoseconds to the core lane executing it. Experiments report
// these simulated times. The constants in DefaultCostModel are calibrated so
// that the composite numbers land in the ballpark of the paper's Tables 3/4
// and Figures 9-14; the shapes (who wins, where crossovers fall) are the
// reproduction target, not the absolute values.
package simclock

import "fmt"

// Time is a point in simulated time, in nanoseconds since machine boot.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration with an adaptive unit, e.g. "12.3µs".
func (d Duration) String() string {
	switch {
	case d < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < 10*Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(Microsecond))
	case d < 10*Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(Second))
	}
}

// Micros returns the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration in (fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Add advances a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration between two Times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// CostModel holds the calibrated simulated cost of every micro-operation the
// machine performs. All values are simulated nanoseconds. A single CostModel
// is shared by the whole machine; experiments that ablate hardware behaviour
// (e.g. "what if NVM writes were as fast as DRAM") construct modified copies.
type CostModel struct {
	// Memory device costs (per 4 KiB page unless stated otherwise).

	// DRAMCopyPage is the cost of copying one page DRAM->DRAM.
	DRAMCopyPage Duration
	// NVMReadPage is the cost of reading one page from NVM.
	NVMReadPage Duration
	// NVMWritePage is the cost of writing one page to NVM (Optane-class
	// write bandwidth is roughly 1/3 of DRAM).
	NVMWritePage Duration
	// DRAMAccess / NVMAccess are per-cacheline (64 B) access costs charged
	// for small in-page reads/writes by applications.
	DRAMAccess Duration
	NVMAccess  Duration
	// CLWBLine is the cost of one cache-line write-back instruction (clwb)
	// issued under the relaxed ADR persistence model; eADR machines never
	// pay it (the whole cache is flushed by the platform on power loss).
	CLWBLine Duration
	// SFence is the cost of the store fence that makes preceding
	// write-backs durable under ADR.
	SFence Duration
	// ChecksumPage is the CPU cost of computing (or verifying) the CRC-32C
	// checksum over one 4 KiB page that protects backup pages
	// against NVM media faults. Charged at checkpoint time when a backup
	// page is (re)written and at restore/scrub time when it is verified.
	ChecksumPage Duration
	// ChecksumRecord is the same for one backup-tree object record
	// (cap group / thread / IPC object snapshots are far smaller than a
	// page).
	ChecksumRecord Duration

	// Kernel entry/exit and traps.

	// SyscallEntry is the combined cost of a syscall trap and return.
	SyscallEntry Duration
	// PageFaultTrap is the cost of taking a page fault and entering the
	// handler (excluding any page copy done inside).
	PageFaultTrap Duration
	// PageTableWalk is the software cost of one page-table lookup.
	PageTableWalk Duration
	// PageTableUpdate is the cost of installing or changing one PTE
	// (including the TLB shootdown amortization).
	PageTableUpdate Duration
	// MarkPageRO is the per-page cost of write-protecting a PTE during
	// checkpointing (cheaper than a full update: done in a batch walk).
	MarkPageRO Duration

	// Inter-processor interrupts / stop-the-world.

	// IPISend is the leader's cost to broadcast the stop IPI.
	IPISend Duration
	// IPIAckPerCore is the per-core cost of acknowledging and parking.
	IPIAckPerCore Duration
	// IPIResume is the leader's cost to broadcast the resume IPI.
	IPIResume Duration
	// MaxKernelSection bounds how long a core may remain non-interruptible
	// (it is interrupted at syscall boundaries; kernel sections are short
	// in a microkernel). Quiescence waits are capped by this.
	MaxKernelSection Duration

	// Checkpoint-manager object costs (calibrated against Table 3).

	// SlabAlloc is the cost of one slab-slot allocation for a backup
	// object, including the journal record protecting it.
	SlabAlloc Duration
	// BuddyAlloc / BuddyFree cover one buddy-system page (de)allocation.
	BuddyAlloc Duration
	BuddyFree  Duration
	// JournalRecord is the cost of persisting one redo/undo journal entry.
	JournalRecord Duration
	// CapCopy is the per-capability cost of copying one slot of a cap
	// group into its backup.
	CapCopy Duration
	// ThreadCopy is the cost of copying one thread context (registers +
	// scheduling state).
	ThreadCopy Duration
	// IPCObjCopy / NotifObjCopy are the direct-copy costs of IPC
	// connection and notification objects.
	IPCObjCopy   Duration
	NotifObjCopy Duration
	// VMRegionCopy is the per-region cost of duplicating one virtual
	// memory region descriptor.
	VMRegionCopy Duration
	// RadixVisit is the per-present-page cost of walking/reusing a
	// checkpointed radix tree during an incremental checkpoint.
	RadixVisit Duration
	// RadixInsert is the per-page cost of building a checkpointed radix
	// tree node from scratch (full checkpoint).
	RadixInsert Duration
	// ORootTouch is the cost of locating/creating an object root.
	ORootTouch Duration
	// CommitCheckpoint is the cost of the atomic global-version bump.
	CommitCheckpoint Duration
	// RestorePerPage is the per-page cost of applying the version rules
	// during recovery.
	RestorePerPage Duration
	// RestoreObject is the base cost of reviving one kernel object.
	RestoreObject Duration

	// Hybrid-copy machinery.

	// HotListAppend is the cost of appending a page to the active list.
	HotListAppend Duration
	// HotListVisit is the per-entry cost of traversing the active list
	// during the parallel stop-and-copy phase.
	HotListVisit Duration

	// Parallel-walk work-queue machinery (see simclock.WorkQueue).

	// WQPublish is the leader's per-unit cost of enqueueing one subtree
	// work unit while partitioning the capability tree.
	WQPublish Duration
	// WQClaim is the per-unit cost of popping the shared queue (one CAS
	// on the queue head plus the local bookkeeping).
	WQClaim Duration
	// WQSteal is the extra cost of claiming a unit homed on another
	// lane's partition: the deque slot's cache line transfers cross-core.
	WQSteal Duration

	// IPC and scheduling.

	// IPCCall is the one-way cost of an IPC message through the kernel
	// fast path (trap + copy + context switch).
	IPCCall Duration
	// ContextSwitch is the cost of a scheduler context switch.
	ContextSwitch Duration

	// NetTxPacket is the driver-side cost of handing one packet to the
	// (simulated) NIC when the checkpoint callback releases delayed
	// messages (§5).
	NetTxPacket Duration

	// Simulated network device (internal/net). The link is modelled as a
	// fixed propagation delay plus a per-byte serialization cost; the
	// receive side pays an interrupt-dispatch cost per frame.

	// NetWireByte is the per-byte serialization cost of the link
	// (bandwidth model: 1 ns/B ~= a 1 GB/s NIC).
	NetWireByte Duration
	// NetPropagation is the one-way propagation delay between a client
	// and the server NIC (NetRTT covers a full round trip including
	// processing; propagation is its per-direction wire component).
	NetPropagation Duration
	// NetRxIRQ is the cost of taking the NIC receive interrupt and
	// dispatching the frame to the driver (netd) before the IPC to the
	// server application.
	NetRxIRQ Duration

	// Storage devices for the baselines (per 4 KiB block unless noted).

	// NVMeWriteBlock / NVMeReadBlock model a fast NVMe SSD.
	NVMeWriteBlock Duration
	NVMeReadBlock  Duration
	// NVMeFlush models a flush/FUA barrier.
	NVMeFlush Duration
	// PMFileAppend models a small synchronous append to a DAX-mapped file
	// on persistent memory (the Linux-WAL configuration), per 256 B.
	PMFileAppend Duration
	// DAXFsync is one fdatasync on an Ext4-DAX file: the filesystem
	// journal commit dominates, making per-operation WAL syncs expensive
	// even on persistent memory (the cost behind Figure 13's Linux-WAL
	// collapse on write-heavy workloads).
	DAXFsync Duration
	// NetRTT is the machine-local, UDP-like client<->server round trip of
	// §7.4 ("leading to µs-scale latencies").
	NetRTT Duration
}

// DefaultCostModel returns the calibrated cost model. See the package comment
// for the calibration philosophy; individual constants are annotated with the
// paper figure they target.
func DefaultCostModel() *CostModel {
	return &CostModel{
		// ~10 GB/s effective DRAM copy => ~400 ns per 4 KiB page.
		DRAMCopyPage: 400,
		// Optane read ~6.6 GB/s => ~620 ns/page.
		NVMReadPage: 620,
		// Optane write ~2.3 GB/s => ~1.8 µs/page; we charge 1500 ns to
		// account for eADR write-combining.
		NVMWritePage: 1500,
		DRAMAccess:   10,
		NVMAccess:    30,
		// clwb retires quickly (the write-back proceeds asynchronously);
		// the sfence pays the drain. Calibrated against the ~100 ns
		// flush+fence figures reported for Optane persistency studies.
		CLWBLine: 15,
		SFence:   100,
		// Hardware-assisted hashing (CRC32C-class, pipelined at tens of
		// bytes per cycle) digests 4 KiB in a couple hundred cycles —
		// cheap enough to run inside the STW touched-page loop without
		// distorting the Table 3 shape, but not free.
		ChecksumPage:   70,
		ChecksumRecord: 25,

		SyscallEntry:    300,
		PageFaultTrap:   900, // trap + handler dispatch (Fig 10 "+page fault")
		PageTableWalk:   40,
		PageTableUpdate: 120,
		MarkPageRO:      45, // batch write-protect walk (Fig 9b VMSpace)

		IPISend:          1200,
		IPIAckPerCore:    350,
		IPIResume:        600,
		MaxKernelSection: 3000,

		SlabAlloc:     120,
		BuddyAlloc:    220,
		BuddyFree:     160,
		JournalRecord: 180,
		// Table 3: incremental CapGroup 0.82-3.28 µs at ~30-110 caps.
		CapCopy: 28,
		// Table 3: incremental Thread 0.15-0.29 µs.
		ThreadCopy: 170,
		// Table 3: IPC 0.03-0.05 µs.
		IPCObjCopy: 40,
		// Table 3: Notification 0.10-1.45 µs (waiter lists vary).
		NotifObjCopy: 90,
		// Table 3: incremental VMSpace 0.41-1.68 µs at a handful of regions.
		VMRegionCopy: 110,
		// Table 3: incremental PMO 0.03 µs (tree reuse, root visit only).
		RadixVisit: 14,
		// Table 3: full PMO ckpt 843-4083 µs at 6k-26k pages => ~155 ns/page.
		RadixInsert:      155,
		ORootTouch:       60,
		CommitCheckpoint: 250,
		// Table 3: PMO restore 19-124 µs at ~1k-6k pages => ~20 ns/page.
		RestorePerPage: 20,
		RestoreObject:  1100,

		HotListAppend: 70,
		HotListVisit:  35,

		// A queue push/pop is a store or CAS on an M-line already in
		// cache (~tens of ns); a steal pays one cross-core cache-line
		// transfer on top (~60-100 ns on a two-socket Xeon).
		WQPublish: 30,
		WQClaim:   40,
		WQSteal:   80,

		IPCCall:       1400,
		ContextSwitch: 800,
		NetTxPacket:   600,

		// ~1 GB/s wire, 5 µs one-way propagation: a 64 B frame crosses in
		// ~5 µs each way, consistent with NetRTT's 14 µs "µs-scale"
		// machine-local round trip once RX dispatch and the server IPC
		// are added.
		NetWireByte:    1,
		NetPropagation: 5000,
		NetRxIRQ:       1500,

		NVMeWriteBlock: 9000,
		NVMeReadBlock:  7000,
		NVMeFlush:      15000,
		PMFileAppend:   700,
		DAXFsync:       30000,
		NetRTT:         14000,
	}
}

// Lane is the simulated clock of one CPU core. Lanes only move forward.
// The zero value is a lane at time 0 with ID 0.
//
// A lane distinguishes two ways of moving forward: Charge (the core did
// work) and AdvanceTo (the core idled until a global event — a checkpoint
// rendezvous, the end of a stop-the-world pause, a settle deadline). The
// idle portion is accumulated separately so per-lane idle time can be
// surfaced as a metric; it never affects Now().
type Lane struct {
	id   int
	now  Time
	idle Duration
}

// SetID labels the lane with its core number (used as the thread ID in
// trace exports).
func (l *Lane) SetID(id int) { l.id = id }

// ID returns the lane's core number.
func (l *Lane) ID() int { return l.id }

// Now returns the lane's current simulated time.
func (l *Lane) Now() Time { return l.now }

// Charge advances the lane by d and returns the new time. Negative charges
// are ignored (they would move time backwards).
func (l *Lane) Charge(d Duration) Time {
	if d > 0 {
		l.now += Time(d)
	}
	return l.now
}

// AdvanceTo moves the lane forward to at least t (used when a core idles
// until a global event such as the end of a stop-the-world pause). The
// skipped span is accounted as idle time.
func (l *Lane) AdvanceTo(t Time) {
	if t > l.now {
		l.idle += t.Sub(l.now)
		l.now = t
	}
}

// IdleTime returns the total simulated time this lane has spent idle
// (advanced by AdvanceTo rather than charged as work) since boot.
func (l *Lane) IdleTime() Duration { return l.idle }
