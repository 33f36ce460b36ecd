package simclock

import (
	"slices"
	"testing"
)

// NewWorkQueue returns a queue over lanes prepared for one round.
func NewWorkQueue(lanes []*Lane, round uint64, claim, steal Duration) *WorkQueue {
	q := new(WorkQueue)
	q.Reset(lanes, round, claim, steal)
	return q
}

// TotalClaims sums the per-lane claim counts.
func (q *WorkQueue) TotalClaims() int {
	n := 0
	for _, c := range q.Claims {
		n += c
	}
	return n
}

func mkLanes(n int, at Time) []*Lane {
	ls := make([]*Lane, n)
	for i := range ls {
		ls[i] = &Lane{}
		ls[i].SetID(i)
		ls[i].AdvanceTo(at)
	}
	return ls
}

// TestWorkQueueDeterminism: two identical runs produce the same claimants,
// the same steal counts, and the same final lane clocks.
func TestWorkQueueDeterminism(t *testing.T) {
	run := func() ([]int, []int, []Time) {
		lanes := mkLanes(4, 100)
		q := NewWorkQueue(lanes, 7, 40, 80)
		owners := make([]int, 13)
		q.Run(13, func(i int, l *Lane) {
			owners[i] = l.ID()
			l.Charge(Duration(100 * (i + 1)))
		})
		times := make([]Time, 4)
		for i, l := range lanes {
			times[i] = l.Now()
		}
		return owners, q.Steals, times
	}
	o1, s1, t1 := run()
	o2, s2, t2 := run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("unit %d claimed by lane %d then lane %d", i, o1[i], o2[i])
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] || t1[i] != t2[i] {
			t.Fatalf("lane %d diverged: steals %d/%d, now %v/%v", i, s1[i], s2[i], t1[i], t2[i])
		}
	}
}

// TestWorkQueueRotation: the round number rotates which lane claims the
// first unit, so no lane is structurally favoured across rounds.
func TestWorkQueueRotation(t *testing.T) {
	first := make(map[int]bool)
	for round := uint64(0); round < 3; round++ {
		lanes := mkLanes(3, 0)
		q := NewWorkQueue(lanes, round, 10, 20)
		var got int
		q.Run(1, func(_ int, l *Lane) { got = l.ID() })
		first[got] = true
	}
	if len(first) != 3 {
		t.Errorf("3 rounds picked only %d distinct first claimants", len(first))
	}
}

// TestWorkQueueChargesBalance: the total charged across lanes equals the
// unit work plus the modeled claim/steal overhead, and an idle start is
// never charged as work.
func TestWorkQueueChargesBalance(t *testing.T) {
	const n = 10
	lanes := mkLanes(4, 50)
	q := NewWorkQueue(lanes, 0, 7, 11)
	var work Duration
	q.Run(n, func(i int, l *Lane) {
		d := Duration(500)
		work += d
		l.Charge(d)
	})
	var charged Duration
	for _, l := range lanes {
		// IdleTime includes the initial AdvanceTo(50), so subtracting it
		// from the absolute clock leaves exactly the charged work.
		charged += l.Now().Sub(0) - l.IdleTime()
	}
	want := work + Duration(n*7) + Duration(q.TotalSteals()*11)
	if charged != want {
		t.Errorf("charged %v, want %v (steals=%d)", charged, want, q.TotalSteals())
	}
	if q.TotalClaims() != n {
		t.Errorf("claims %d, want %d", q.TotalClaims(), n)
	}
}

// TestWorkQueueBalancesLoad: with uniform units, no lane ends up with more
// than its fair share plus one unit's worth of work.
func TestWorkQueueBalancesLoad(t *testing.T) {
	lanes := mkLanes(4, 0)
	q := NewWorkQueue(lanes, 0, 0, 0)
	end := q.Run(16, func(_ int, l *Lane) { l.Charge(100) })
	if end != 400 {
		t.Errorf("16 uniform units over 4 lanes ended at %v, want 400", end)
	}
	for i, c := range q.Claims {
		if c != 4 {
			t.Errorf("lane %d claimed %d units, want 4", i, c)
		}
	}
}

// TestWorkQueueEagerLaneWins: a lane that finishes early claims the surplus.
func TestWorkQueueEagerLaneWins(t *testing.T) {
	lanes := mkLanes(2, 0)
	lanes[1].AdvanceTo(10_000) // lane 1 arrives late
	q := NewWorkQueue(lanes, 0, 0, 0)
	q.Run(8, func(_ int, l *Lane) { l.Charge(100) })
	if q.Claims[0] != 8 || q.Claims[1] != 0 {
		t.Errorf("claims = %v, want all on the early lane", q.Claims)
	}
	if q.Steals[0] != 4 {
		t.Errorf("lane 0 stole %d units, want 4 (every odd-homed unit)", q.Steals[0])
	}
}

// TestWorkQueueResetReuses: a queue reset for a new round claims exactly as
// a fresh queue would — counts start from zero and the rotation follows the
// new round — and keeps its count storage.
func TestWorkQueueResetReuses(t *testing.T) {
	var q WorkQueue
	q.Reset(mkLanes(3, 0), 1, 10, 20)
	q.Run(7, func(i int, l *Lane) { l.Charge(Duration(50 * (i + 1))) })
	claims := &q.Claims[0]

	q.Reset(mkLanes(3, 0), 2, 10, 20)
	fresh := NewWorkQueue(mkLanes(3, 0), 2, 10, 20)
	for _, wq := range []*WorkQueue{&q, fresh} {
		wq.Run(5, func(i int, l *Lane) { l.Charge(Duration(70 * (i + 1))) })
	}
	if !slices.Equal(q.Claims, fresh.Claims) || !slices.Equal(q.Steals, fresh.Steals) {
		t.Errorf("reset queue claims %v steals %v, fresh queue claims %v steals %v",
			q.Claims, q.Steals, fresh.Claims, fresh.Steals)
	}
	if &q.Claims[0] != claims {
		t.Error("Reset reallocated the claim counts")
	}
}
