package caps

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadExited
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadBlocked:
		return "blocked"
	default:
		return "exited"
	}
}

// Context is the simulated register file of a thread. Real TreeSLS saves
// the trap frame when a core enters the kernel; the simulation keeps a small
// register file that applications and tests can use to observe that in-flight
// register state is checkpointed and restored exactly (and that post-
// checkpoint register updates are lost on a crash, as on real hardware).
type Context struct {
	PC uint64
	SP uint64
	// R is a bank of general-purpose registers.
	R [8]uint64
}

// SchedContext is the scheduling metadata of a thread.
type SchedContext struct {
	Priority  int
	Affinity  int // preferred core, -1 = any
	TimeSlice uint32
}

// Thread is a kernel thread object: register context + scheduling state.
// All state of user-space threads is consistently saved when the cores are
// trapped in the kernel during the stop-the-world pause, so Snapshot can
// copy it directly (§4.1).
type Thread struct {
	objHeader
	Ctx   Context
	Sched SchedContext
	State ThreadState
}

func newThread(id uint64) *Thread {
	t := new(Thread)
	t.reset(id)
	return t
}

// reset puts t in the state of a new thread with the given ID: zero
// registers, runnable, no core affinity.
func (t *Thread) reset(id uint64) {
	*t = Thread{objHeader: newHeader(KindThread, id), Sched: SchedContext{Affinity: -1}, State: ThreadRunnable}
}

// SetState updates the scheduling state, marking the thread dirty.
func (t *Thread) SetState(s ThreadState) {
	if t.State != s {
		t.State = s
		t.MarkDirty()
	}
}

// Touch mutates the register file (used by workloads to model in-flight
// computation) and marks the thread dirty.
func (t *Thread) Touch(mutate func(*Context)) {
	mutate(&t.Ctx)
	t.MarkDirty()
}

// ThreadSnap is the backup image of a thread.
type ThreadSnap struct {
	Ctx   Context
	Sched SchedContext
	State ThreadState
}

// SnapKind implements Snapshot.
func (*ThreadSnap) SnapKind() ObjectKind { return KindThread }

// Snapshot copies the thread context into snap.
func (t *Thread) Snapshot(snap *ThreadSnap) {
	snap.Ctx = t.Ctx
	snap.Sched = t.Sched
	snap.State = t.State
}

// RestoreFrom rebuilds the thread from a snapshot. A thread that was Running
// at checkpoint time comes back Runnable: the restore path re-adds every
// runnable thread to the scheduler queues (derived state, §3).
func (t *Thread) RestoreFrom(snap *ThreadSnap) {
	t.Ctx = snap.Ctx
	t.Sched = snap.Sched
	t.State = snap.State
	if t.State == ThreadRunning {
		t.State = ThreadRunnable
	}
	t.dirty = false
}
