package kernel

import "treesls/internal/caps"

// Scheduler keeps per-core run queues. In the lane-based simulation the
// queues carry no timing semantics (dispatch order is decided by lane
// times); they exist because the paper calls scheduler state out as *derived*
// state that is deliberately not checkpointed and must be rebuilt from the
// capability tree during recovery (§3), which RebuildFromTree does.
type Scheduler struct {
	queues [][]*caps.Thread
	next   int
}

// NewScheduler creates empty queues for nCores cores.
func NewScheduler(nCores int) *Scheduler {
	return &Scheduler{queues: make([][]*caps.Thread, nCores)}
}

// Enqueue adds a runnable thread to a queue (its affinity core, or round-
// robin).
func (s *Scheduler) Enqueue(t *caps.Thread) {
	core := t.Sched.Affinity
	if core < 0 || core >= len(s.queues) {
		core = s.next % len(s.queues)
		s.next++
	}
	s.queues[core] = append(s.queues[core], t)
}

// Len returns the total number of queued threads.
func (s *Scheduler) Len() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// Queue returns the run queue of one core.
func (s *Scheduler) Queue(core int) []*caps.Thread { return s.queues[core] }

// RebuildFromTree re-populates the queues with every runnable thread
// reachable from the restored capability tree — the recovery step the paper
// describes as "adding all threads to the scheduler's queue".
func (s *Scheduler) RebuildFromTree(tree *caps.Tree) {
	s.reset()
	tree.Walk(func(o caps.Object) {
		if th, ok := o.(*caps.Thread); ok && th.State == caps.ThreadRunnable {
			s.Enqueue(th)
		}
	})
}

// reset empties every run queue, keeping its storage, and restarts the
// round-robin placement. A crash resets the queues; restore refills them.
func (s *Scheduler) reset() {
	for i, q := range s.queues {
		clear(q)
		s.queues[i] = q[:0]
	}
	s.next = 0
}
