package simclock

import "slices"

// WorkQueue is the deterministic multi-lane work-queue primitive behind the
// parallel capability-tree walk. A fixed, ordered list of work units is
// claimed by a set of core lanes; the claim schedule is a pure function of
// the unit durations, the round number and the lane count, so two identical
// runs produce byte-identical timing and the same claimant for every unit.
//
// The model follows a shared FIFO queue with per-lane home partitions:
//
//   - Unit i's home lane is (rot+i) mod L, a round-robin assignment rotated
//     by the round number (rot = round mod L), so no lane is structurally
//     favoured across rounds.
//   - Units are claimed strictly in list order. The claimant of the next
//     unit is the lane whose clock is earliest — exactly the lane that would
//     win the CAS on the queue head in real time. Ties are broken by the
//     same rotated order, making the tie-break a pure function of
//     (round, lane count).
//   - Every claim charges the claimant a queue-pop cost; a claim by a lane
//     other than the unit's home lane is a steal and additionally charges
//     the cross-lane cost (the home lane's deque slot must travel a cache
//     line to the thief).
//
// Crucially, Run executes the units in list order regardless of which lane
// claims them: the simulation is single-threaded, so unit side effects
// (allocations, map inserts, snapshot writes) happen in one canonical order
// no matter how many lanes participate. Parallelism shows up only in how the
// work's simulated cost is distributed over lane clocks. This is what makes
// a parallel walk observably identical to the serial one.
type WorkQueue struct {
	lanes        []*Lane
	rot          int
	claim, steal Duration

	// Claims and Steals count, per lane, how many units the lane claimed
	// and how many of those were steals (claims of units homed elsewhere).
	Claims []int
	Steals []int
}

// Reset prepares q over lanes for one checkpoint round, zeroing the claim
// and steal counts in place so that a queue reused round after round
// allocates only when the lane count grows. claim is the per-unit queue-pop
// cost, steal the extra cross-lane transfer cost. The zero WorkQueue is
// ready for Reset.
func (q *WorkQueue) Reset(lanes []*Lane, round uint64, claim, steal Duration) {
	if len(lanes) == 0 {
		panic("simclock: work queue needs at least one lane")
	}
	q.lanes = lanes
	q.rot = int(round % uint64(len(lanes)))
	q.claim, q.steal = claim, steal
	q.Claims = zeroed(q.Claims, len(lanes))
	q.Steals = zeroed(q.Steals, len(lanes))
}

// zeroed returns s resized to n zero counts, reusing its storage when it
// is large enough.
func zeroed(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Run claims and executes units 0..n-1 in order, invoking fn(i, lane) with
// the claiming lane (fn charges the unit's work to it). It returns the
// latest lane time once every unit has finished.
func (q *WorkQueue) Run(n int, fn func(i int, l *Lane)) Time {
	for i := 0; i < n; i++ {
		w := q.pick()
		q.Claims[w]++
		l := q.lanes[w]
		l.Charge(q.claim)
		if home := (q.rot + i) % len(q.lanes); home != w {
			q.Steals[w]++
			l.Charge(q.steal)
		}
		fn(i, l)
	}
	return q.End()
}

// pick returns the index of the lane that claims the next unit: earliest
// clock first, ties broken in rotated lane order.
func (q *WorkQueue) pick() int {
	best := -1
	var bestT Time
	for k := 0; k < len(q.lanes); k++ {
		j := (q.rot + k) % len(q.lanes)
		if t := q.lanes[j].Now(); best < 0 || t < bestT {
			best, bestT = j, t
		}
	}
	return best
}

// End returns the latest clock across the queue's lanes.
func (q *WorkQueue) End() Time {
	var end Time
	for _, l := range q.lanes {
		if l.Now() > end {
			end = l.Now()
		}
	}
	return end
}

// TotalSteals sums the per-lane steal counts.
func (q *WorkQueue) TotalSteals() int {
	n := 0
	for _, s := range q.Steals {
		n += s
	}
	return n
}
