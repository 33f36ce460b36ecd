package checkpoint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/simclock"
)

// serialConfig/parallelConfig are the two walk variants of the same
// checkpoint configuration.
func serialConfig() Config {
	cfg := DefaultConfig()
	cfg.ParallelWalk = false
	return cfg
}

// randomTree grows a deterministic pseudo-random capability tree onto h:
// deep cap-group chains, wide fan-outs, PMOs shared between two VM spaces,
// and assorted leaf kinds. It returns the revocable (group, slot) pairs so
// the caller can cut random subtrees loose.
type revocable struct {
	group *caps.CapGroup
	slot  int
}

func randomTree(t *testing.T, h *harness, rng *rand.Rand) []revocable {
	t.Helper()
	var revocables []revocable
	groups := []*caps.CapGroup{h.tree.Root}
	var pmos []*caps.PMO
	var threads []*caps.Thread

	nProcs := 2 + rng.Intn(4)
	for p := 0; p < nProcs; p++ {
		// A chain of nested groups of random depth hangs each process
		// at a random distance from the root.
		parent := groups[rng.Intn(len(groups))]
		depth := 1 + rng.Intn(5)
		for d := 0; d < depth; d++ {
			child := h.tree.NewCapGroup(parent, fmt.Sprintf("p%d-d%d", p, d))
			revocables = append(revocables, revocable{parent, parent.NumSlots() - 1})
			groups = append(groups, child)
			parent = child
		}
		vs := h.tree.NewVMSpace(parent)
		nPMOs := 1 + rng.Intn(3)
		for k := 0; k < nPMOs; k++ {
			pages := uint64(1 + rng.Intn(6))
			pmo := h.tree.NewPMO(parent, pages, caps.PMODefault)
			_ = vs.Map(&caps.VMRegion{VABase: 0x10000 + uint64(k)*0x100000,
				NumPages: pages, PMO: pmo, Perm: caps.RightRead | caps.RightWrite})
			pmos = append(pmos, pmo)
			for i := uint64(0); i < pages; i++ {
				if rng.Intn(2) == 0 {
					h.writePage(t, pmo, i, []byte(fmt.Sprintf("p%d-k%d-i%d", p, k, i)))
				}
			}
		}
		// Occasionally map an existing PMO into this space too: shared
		// PMOs are reached from two parents and must be visited once.
		if len(pmos) > nPMOs && rng.Intn(2) == 0 {
			shared := pmos[rng.Intn(len(pmos))]
			_ = vs.Map(&caps.VMRegion{VABase: 0x900000, NumPages: shared.SizePages,
				PMO: shared, Perm: caps.RightRead})
		}
		nThreads := 1 + rng.Intn(3)
		for k := 0; k < nThreads; k++ {
			th := h.tree.NewThread(parent)
			th.Touch(func(c *caps.Context) { c.PC = rng.Uint64(); c.R[0] = rng.Uint64() })
			threads = append(threads, th)
		}
		// Wide fan-out: a bushel of sibling leaf groups.
		fan := rng.Intn(6)
		for k := 0; k < fan; k++ {
			g := h.tree.NewCapGroup(parent, fmt.Sprintf("p%d-fan%d", p, k))
			revocables = append(revocables, revocable{parent, parent.NumSlots() - 1})
			groups = append(groups, g)
		}
	}
	if len(threads) >= 2 {
		h.tree.NewIPCConn(groups[rng.Intn(len(groups))], threads[0], threads[1])
		h.tree.NewNotification(groups[rng.Intn(len(groups))])
		h.tree.NewIRQNotification(groups[rng.Intn(len(groups))], rng.Intn(16))
	}
	return revocables
}

// mutateTree applies a deterministic batch of post-checkpoint mutations:
// dirty some threads and pages, revoke a few random subtrees.
func mutateTree(t *testing.T, h *harness, rng *rand.Rand, revocables []revocable) {
	t.Helper()
	h.tree.Walk(func(o caps.Object) {
		switch v := o.(type) {
		case *caps.Thread:
			if rng.Intn(2) == 0 {
				v.Touch(func(c *caps.Context) { c.R[1] = rng.Uint64() })
			}
		case *caps.PMO:
			if v.SizePages > 0 && rng.Intn(2) == 0 {
				h.writePage(t, v, uint64(rng.Intn(int(v.SizePages))), []byte("mutated"))
			}
		}
	})
	for _, rv := range revocables {
		if rng.Intn(4) == 0 && rv.group.Cap(rv.slot).Obj != nil {
			rv.group.Remove(rv.slot)
		}
	}
}

// walkOverhead is the modeled queue overhead a parallel walk adds on top of
// the serial walk's total work.
func walkOverhead(model *simclock.CostModel, rep Report) simclock.Duration {
	return simclock.Duration(rep.WalkUnits)*(model.WQPublish+model.WQClaim) +
		simclock.Duration(rep.WalkSteals)*model.WQSteal
}

// TestParallelWalkProperties is the seeded quickcheck satellite: across
// random tree shapes (deep chains, wide fan-out, shared PMOs, revoked
// subtrees) the parallel walk must visit every live object exactly once,
// sweep exactly the unreachable roots, and charge in total exactly the
// serial walk time plus the modeled handoff overhead.
func TestParallelWalkProperties(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lanesN := []int{2, 4, 8}[seed%3]
			hs := newHarness(t, serialConfig(), lanesN)
			hp := newHarness(t, DefaultConfig(), lanesN)

			rs := randomTree(t, hs, rand.New(rand.NewSource(seed)))
			rp := randomTree(t, hp, rand.New(rand.NewSource(seed)))

			repS1 := hs.checkpoint()
			repP1 := hp.checkpoint()
			checkRound(t, hs, hp, repS1, repP1, true)

			mutateTree(t, hs, rand.New(rand.NewSource(seed+1000)), rs)
			mutateTree(t, hp, rand.New(rand.NewSource(seed+1000)), rp)

			repS2 := hs.checkpoint()
			repP2 := hp.checkpoint()
			checkRound(t, hs, hp, repS2, repP2, false)

			if hs.mgr.Stats.RootsSwept != hp.mgr.Stats.RootsSwept {
				t.Errorf("swept %d roots serially, %d in parallel",
					hs.mgr.Stats.RootsSwept, hp.mgr.Stats.RootsSwept)
			}
		})
	}
}

// checkRound asserts the per-round properties relating a serial harness hs
// and a parallel harness hp that just checkpointed identical trees. fresh is
// true on the first round, when every reachable object is dirty: there the
// walk must cover the whole tree. On later rounds the reference semantics
// deliberately skip descending into clean IPC/notification objects, so the
// oracle is strict serial/parallel agreement rather than tree.Counts.
func checkRound(t *testing.T, hs, hp *harness, repS, repP Report, fresh bool) {
	t.Helper()
	if fresh {
		// Visit-exactly-once: on a fully dirty tree the per-kind visit
		// counts must equal the reachable object counts — a double
		// visit or a missed subtree shows up here.
		counts := hp.tree.Counts()
		if repP.PerKindCount != counts {
			t.Errorf("parallel visit counts %v != reachable objects %v", repP.PerKindCount, counts)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		live := 0
		hp.mgr.ForEachRoot(func(*caps.ORoot) { live++ })
		if live != total {
			t.Errorf("parallel manager tracks %d roots, want %d reachable", live, total)
		}
	}
	if repP.PerKindCount != repS.PerKindCount {
		t.Errorf("visit counts diverge: serial %v parallel %v", repS.PerKindCount, repP.PerKindCount)
	}
	// The sweep must keep exactly the roots the reference walk keeps.
	liveS, liveP := 0, 0
	hs.mgr.ForEachRoot(func(*caps.ORoot) { liveS++ })
	hp.mgr.ForEachRoot(func(*caps.ORoot) { liveP++ })
	if liveS != liveP {
		t.Errorf("live roots diverge: serial %d parallel %d", liveS, liveP)
	}
	// Work conservation: total charged walk time across lanes equals the
	// serial walk plus exactly the modeled handoff overhead. (The leader's
	// wall-clock span, rep.CapTree, only beats serial on trees big enough
	// to amortize that overhead — the bench regression pins that down.)
	if repP.WalkUnits == 0 {
		t.Fatalf("parallel run reported no work units")
	}
	want := repS.CapTree + walkOverhead(hp.model, repP)
	if repP.WalkWork != want {
		t.Errorf("parallel WalkWork = %d, want serial CapTree %d + overhead %d = %d (units=%d steals=%d)",
			repP.WalkWork, repS.CapTree, walkOverhead(hp.model, repP), want,
			repP.WalkUnits, repP.WalkSteals)
	}
}

// TestOneLaneParallelIsSerial: on a single-core machine the parallel
// configuration must take the serial path bit-for-bit — identical reports
// and identical lane clocks.
func TestOneLaneParallelIsSerial(t *testing.T) {
	hs := newHarness(t, serialConfig(), 1)
	hp := newHarness(t, DefaultConfig(), 1)
	randomTree(t, hs, rand.New(rand.NewSource(99)))
	randomTree(t, hp, rand.New(rand.NewSource(99)))
	repS := hs.checkpoint()
	repP := hp.checkpoint()
	if !reflect.DeepEqual(repS, repP) {
		t.Errorf("1-lane reports diverge:\nserial   %+v\nparallel %+v", repS, repP)
	}
	if hs.lane().Now() != hp.lane().Now() {
		t.Errorf("1-lane clocks diverge: serial %v parallel %v", hs.lane().Now(), hp.lane().Now())
	}
}

// TestPartitionPreservesDFSOrder: flattening the unit list must reproduce
// the serial DFS visit order exactly (on a tree without cross-links, where
// unit roots enumerate all children).
func TestPartitionPreservesDFSOrder(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 4)
	// Chain + fan-out, no sharing: every object is reached through
	// exactly one parent.
	g1 := h.tree.NewCapGroup(h.tree.Root, "g1")
	g2 := h.tree.NewCapGroup(g1, "g2")
	for i := 0; i < 5; i++ {
		leaf := h.tree.NewCapGroup(g2, fmt.Sprintf("leaf%d", i))
		h.tree.NewThread(leaf)
	}
	vs := h.tree.NewVMSpace(g1)
	for k := 0; k < 3; k++ {
		pmo := h.tree.NewPMO(g1, 2, caps.PMODefault)
		_ = vs.Map(&caps.VMRegion{VABase: uint64(k) * 0x100000, NumPages: 2, PMO: pmo,
			Perm: caps.RightRead | caps.RightWrite})
	}

	var serialOrder []uint64
	h.tree.Walk(func(o caps.Object) { serialOrder = append(serialOrder, o.ID()) })

	var part walkPartition
	units := part.partitionWalk(h.tree.Root, 4)
	if units[0].obj != caps.Object(h.tree.Root) {
		t.Fatalf("unit 0 is %v, want the tree root", units[0].obj.ID())
	}
	if len(units) < 4 {
		t.Fatalf("partition produced %d units for 4 lanes", len(units))
	}
	seen := make(map[uint64]bool)
	var flat []uint64
	var dfs func(o caps.Object)
	dfs = func(o caps.Object) {
		if o == nil || seen[o.ID()] {
			return
		}
		seen[o.ID()] = true
		flat = append(flat, o.ID())
		if kids, ok := walkChildren(nil, o); ok {
			for _, c := range kids {
				dfs(c)
			}
		}
	}
	for _, u := range units {
		if u.shallow {
			if !seen[u.obj.ID()] {
				seen[u.obj.ID()] = true
				flat = append(flat, u.obj.ID())
			}
			continue
		}
		dfs(u.obj)
	}
	if !reflect.DeepEqual(flat, serialOrder) {
		t.Errorf("flattened unit order %v != serial DFS order %v", flat, serialOrder)
	}
}

// TestParallelRestoreMatchesSerial: after a crash, a tree checkpointed in
// parallel restores to exactly the state the serial walk would have saved —
// object counts and page contents included.
func TestParallelRestoreMatchesSerial(t *testing.T) {
	hs := newHarness(t, serialConfig(), 4)
	hp := newHarness(t, DefaultConfig(), 4)
	randomTree(t, hs, rand.New(rand.NewSource(7)))
	randomTree(t, hp, rand.New(rand.NewSource(7)))
	hs.checkpoint()
	hp.checkpoint()

	hs.crash()
	hp.crash()
	ts := hs.restore(t)
	tp := hp.restore(t)

	if ts.Counts() != tp.Counts() {
		t.Errorf("restored counts diverge: serial %v parallel %v", ts.Counts(), tp.Counts())
	}
	// Page contents must match pairwise across the two restored trees.
	var sPages, pPages []string
	collect := func(tree *caps.Tree, out *[]string) {
		tree.Walk(func(o caps.Object) {
			if pmo, ok := o.(*caps.PMO); ok {
				for i := uint64(0); i < pmo.SizePages; i++ {
					if s := pmo.Lookup(i); s != nil {
						buf := make([]byte, 16)
						if tree == ts {
							hs.mem.ReadAt(s.Page, 0, buf)
						} else {
							hp.mem.ReadAt(s.Page, 0, buf)
						}
						*out = append(*out, fmt.Sprintf("%d/%d:%x", pmo.ID(), i, buf))
					}
				}
			}
		})
	}
	collect(ts, &sPages)
	collect(tp, &pPages)
	if !reflect.DeepEqual(sPages, pPages) {
		t.Errorf("restored page contents diverge:\nserial   %v\nparallel %v", sPages, pPages)
	}
}
