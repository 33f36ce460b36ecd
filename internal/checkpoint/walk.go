package checkpoint

// Parallel capability-tree walk (checkpoint step ❷).
//
// The tree is partitioned into an ordered list of subtree work units whose
// concatenation is exactly the serial DFS, then the units are claimed by all
// core lanes through the deterministic simclock.WorkQueue. Because the queue
// executes units in list order no matter which lane claims them, every side
// effect of the walk — ORoot creation, snapshot writes, seen-stamps, backup
// allocations — happens in the same canonical order as the serial reference
// walk; only the simulated cost attribution is spread across lanes. That is
// the invariant the serial-vs-parallel differential suite pins down.

import (
	"slices"

	"treesls/internal/caps"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// walkUnit is one unit of the partitioned walk: a subtree root to
// checkpoint. A shallow unit covers the object alone — its children were
// split off into later units of their own.
type walkUnit struct {
	obj     caps.Object
	shallow bool
}

// walkChildren appends to kids the children a shallow visit of o hands off
// to follow-up units, in exactly the order visitResolved gathers them, and
// returns the extended slice; ok=false if o's kind cannot be split (its
// references stay inside one unit). CapGroup slot order matches both
// ForEach and Snapshot; VMSpace region order matches both ForEachRegion and
// Snapshot.
func walkChildren(kids []caps.Object, o caps.Object) ([]caps.Object, bool) {
	switch v := o.(type) {
	case *caps.CapGroup:
		v.ForEach(func(_ int, c caps.Capability) { kids = append(kids, c.Obj) })
		return kids, true
	case *caps.VMSpace:
		v.ForEachRegion(func(r *caps.VMRegion) {
			if r.PMO != nil {
				kids = append(kids, r.PMO)
			}
		})
		return kids, true
	}
	return kids, false
}

// walkPartition holds the unit list partitionWalk builds and its child
// buffer. The Manager keeps one and reuses both slices every round.
type walkPartition struct {
	units []walkUnit
	kids  []caps.Object
}

// partitionWalk splits the tree rooted at root into work units for lanes
// claimants. Expansion replaces a deep unit in place with a shallow visit of
// its object followed by one deep unit per child, which preserves the serial
// DFS order by induction; it proceeds left to right until the unit count
// reaches 4× the lane count (enough slack for the queue to balance uneven
// subtrees) or no unit can be split further. The scan is structural only —
// no object is resolved or marked. The returned list reuses p's storage and
// is valid until the next call.
func (p *walkPartition) partitionWalk(root caps.Object, lanes int) []walkUnit {
	units := append(p.units[:0], walkUnit{obj: root})
	target := 4 * lanes
	for i := 0; i < len(units) && len(units) < target; i++ {
		if units[i].shallow {
			continue
		}
		kids, ok := walkChildren(p.kids[:0], units[i].obj)
		p.kids = kids
		if !ok || len(kids) == 0 {
			continue
		}
		// Grow the list by one slot per child, shift the tail up with
		// one copy, then fill the gap behind the now-shallow unit i.
		n := len(kids)
		units = slices.Grow(units, n)[:len(units)+n]
		copy(units[i+1+n:], units[i+1:])
		units[i].shallow = true
		for j, c := range kids {
			units[i+1+j] = walkUnit{obj: c}
		}
	}
	clear(p.kids)
	p.units = units
	return units
}

// visitShallow checkpoints the unit's object without descending; its
// children are covered by the units that follow it in the list, so the
// ones visitResolved pushes are dropped at once.
func (m *Manager) visitShallow(lane *simclock.Lane, o caps.Object, round uint64, rep *Report) *caps.ORoot {
	r := m.resolve(lane, o)
	if r.SeenInRound(m.walkStamp) {
		return r
	}
	base := len(m.kids)
	m.visitResolved(lane, o, r, round, rep)
	m.popKids(base)
	return r
}

// walkMark is one lane's clock and idle odometer at the start of a
// parallel walk.
type walkMark struct {
	now  simclock.Time
	idle simclock.Duration
}

// parallelWalk runs checkpoint step ❷ across all lanes. The leader
// partitions the tree and publishes one queue descriptor per unit; every
// lane (leader included) then claims units through the work queue. The
// leader finally waits for the last unit so the commit in step ❹ cannot
// overtake the walk.
func (m *Manager) parallelWalk(lanes []*simclock.Lane, leader int, round uint64, rep *Report) {
	ll := lanes[leader]

	// Remember each lane's clock and idle odometer so the walk's total
	// charged work (WalkWork) can be recovered afterwards, net of any
	// waiting at barriers.
	marks := m.marks[:0]
	for _, l := range lanes {
		marks = append(marks, walkMark{l.Now(), l.IdleTime()})
	}
	m.marks = marks

	units := m.part.partitionWalk(m.tree.Root, len(lanes))
	ll.Charge(simclock.Duration(len(units)) * m.model.WQPublish)

	// Publish barrier: no lane can pop a queue entry it cannot yet see.
	pub := ll.Now()
	for _, l := range lanes {
		l.AdvanceTo(pub)
	}

	q := &m.wq
	q.Reset(lanes, round, m.model.WQClaim, m.model.WQSteal)
	var rootR *caps.ORoot
	end := q.Run(len(units), func(i int, l *simclock.Lane) {
		// Claim boundary: a power failure can land right after the unit
		// left the queue (mid-steal) with none of its state saved yet.
		m.memory.CrashPoint()
		u := units[i]
		var r *caps.ORoot
		if u.shallow {
			r = m.visitShallow(l, u.obj, round, rep)
		} else {
			r = m.checkpointObject(l, u.obj, round, rep)
		}
		if i == 0 {
			rootR = r // unit 0 is always the tree root
		}
		// Subtree-commit boundary: the unit's snapshots are written but
		// not yet fenced, and the next claim has not happened.
		m.memory.CrashPoint()
	})
	m.rootORoot = rootR
	clear(units) // a shorter next partition would leave these pinned

	rep.WalkUnits = len(units)
	rep.WalkSteals = q.TotalSteals()
	for i, l := range lanes {
		rep.WalkWork += l.Now().Sub(marks[i].now) - (l.IdleTime() - marks[i].idle)
	}

	if m.traceOn() {
		tr := m.obs.Trace
		for i, l := range lanes {
			if q.Claims[i] == 0 {
				continue
			}
			tr.Span(l.ID(), pub, l.Now(), "checkpoint", "captree-lane",
				obs.I("claims", int64(q.Claims[i])), obs.I("steals", int64(q.Steals[i])))
		}
	}

	// The commit word must not be published before the last unit is
	// durable in its lane's timeline.
	ll.AdvanceTo(end)
}
