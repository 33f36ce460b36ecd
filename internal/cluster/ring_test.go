package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"treesls/internal/workload"
)

// TestRingLoadBalance: across seeded key sets, virtual-node hashing keeps
// every shard's share of the keyspace within a stated bound of the mean.
func TestRingLoadBalance(t *testing.T) {
	const keysN = 10000
	for _, shards := range []int{2, 3, 4, 8} {
		r := NewRing(shards, 0)
		for seed := int64(1); seed <= 3; seed++ {
			counts := make([]int, shards)
			for _, key := range workload.ClusterKeys(seed, keysN) {
				counts[r.Owner(key)]++
			}
			mean := float64(keysN) / float64(shards)
			for s, n := range counts {
				ratio := float64(n) / mean
				if ratio < 0.5 || ratio > 1.6 {
					t.Errorf("shards=%d seed=%d: shard %d owns %d keys (%.2fx the mean %.0f) — outside [0.5,1.6]",
						shards, seed, s, n, ratio, mean)
				}
			}
		}
	}
}

// TestRingMinimalMovement: growing a versioned ring by one member
// (WithShard) moves exactly the keys the arriving shard's vnodes win — a
// key that does not move keeps not just its owning shard but its exact
// owning VNODE (the same ring point), which is the strict form of
// consistent-hash stability: an unchanged shard owner with a changed vnode
// would mean the ring reshuffled internally and only coincidentally mapped
// back. Shrinking (WithoutShard) is the inverse: survivors' keys keep
// their points, and exactly the departing shard's keys move.
func TestRingMinimalMovement(t *testing.T) {
	const keysN = 5000
	keys := workload.ClusterKeys(7, keysN)
	for _, n := range []int{1, 2, 3, 4, 7} {
		small := NewRing(n, 0)
		big := small.WithShard(n)
		if small.Version() != 1 || big.Version() != 2 {
			t.Fatalf("N=%d: versions %d→%d, want 1→2", n, small.Version(), big.Version())
		}
		var moved, toNew int
		for _, key := range keys {
			a, apt := small.OwnerVnode(key)
			b, bpt := big.OwnerVnode(key)
			if a != b {
				moved++
				if b != n {
					t.Fatalf("N=%d→%d: key %q moved from shard %d to %d — only the arriving shard %d may win keys",
						n, n+1, key, a, b, n)
				}
			} else if apt != bpt {
				t.Fatalf("N=%d→%d: key %q kept shard %d but its owning vnode point changed %#x→%#x",
					n, n+1, key, a, apt, bpt)
			}
			if b == n {
				toNew++
			}
		}
		if moved != toNew {
			t.Errorf("N=%d→%d: %d keys moved but the arriving shard owns %d", n, n+1, moved, toNew)
		}
		if n > 1 && moved == 0 {
			t.Errorf("N=%d→%d: no keys moved to the arriving shard — ring not spreading", n, n+1)
		}
		// Shrinking is the same transition read in the other direction:
		// WithoutShard(n) must reproduce the small ring's point assignment
		// exactly — keys moving down are those the departing shard held.
		back := big.WithoutShard(n)
		if back.Version() != 3 {
			t.Fatalf("N=%d: shrink version %d, want 3", n, back.Version())
		}
		for _, key := range keys {
			bo, _ := big.OwnerVnode(key)
			so, spt := small.OwnerVnode(key)
			ko, kpt := back.OwnerVnode(key)
			if ko != so || kpt != spt {
				t.Fatalf("N=%d→%d: key %q owned by shard %d point %#x after shrink, want shard %d point %#x",
					n+1, n, key, ko, kpt, so, spt)
			}
			if bo != n && bo != ko {
				t.Fatalf("N=%d→%d: survivor-owned key %q changed owner on shrink", n+1, n, key)
			}
		}
	}
}

// TestRingMembership: versioned membership transitions keep the member set
// sorted, reject duplicates and absentees, and leave the source ring
// untouched (rings are immutable values).
func TestRingMembership(t *testing.T) {
	r := NewRingOf([]int{0, 2, 5}, 16, 9)
	if r.Version() != 9 || r.Shards() != 3 {
		t.Fatalf("ring v%d/%d members, want v9/3", r.Version(), r.Shards())
	}
	for _, id := range []int{0, 2, 5} {
		if !r.Has(id) {
			t.Fatalf("Has(%d) = false", id)
		}
	}
	if r.Has(1) || r.Has(3) {
		t.Fatal("Has reports a non-member")
	}
	grown := r.WithShard(3)
	if got := grown.Members(); len(got) != 4 || got[0] != 0 || got[1] != 2 || got[2] != 3 || got[3] != 5 {
		t.Fatalf("grown members = %v, want [0 2 3 5]", got)
	}
	if r.Shards() != 3 {
		t.Fatal("WithShard mutated the source ring")
	}
	shrunk := grown.WithoutShard(2)
	if shrunk.Has(2) || shrunk.Shards() != 3 {
		t.Fatalf("shrunk members = %v, want 2 gone", shrunk.Members())
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("WithShard(dup)", func() { r.WithShard(2) })
	mustPanic("WithoutShard(absent)", func() { r.WithoutShard(4) })
	mustPanic("WithoutShard(last)", func() { NewRingOf([]int{1}, 8, 1).WithoutShard(1) })
}

// TestRingDeterminism: the ring is a pure function of (shards, vnodes).
func TestRingDeterminism(t *testing.T) {
	a, b := NewRing(4, 32), NewRing(4, 32)
	for _, key := range workload.ClusterKeys(11, 500) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner differs between identical rings", key)
		}
	}
	if a.Shards() != 4 || a.Vnodes() != 32 {
		t.Fatalf("ring reports shards=%d vnodes=%d, want 4/32", a.Shards(), a.Vnodes())
	}
	if NewRing(3, 0).Vnodes() != DefaultVnodes {
		t.Fatalf("vnodes=0 should default to %d", DefaultVnodes)
	}
}

// TestVnodeHashMatchesFmtReference pins vnodeHash to the hash of the
// vnode's textual name as fmt formats it, over negative, one- and
// two-digit shards and vnodes into the hundreds: every ring point, and so
// every key's owner, stays where it was.
func TestVnodeHashMatchesFmtReference(t *testing.T) {
	for s := -3; s <= 69; s++ {
		for v := 0; v < 300; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard-%d/vnode-%d", s, v)
			if got, want := vnodeHash(s, v), mix64(h.Sum64()); got != want {
				t.Fatalf("vnodeHash(%d, %d) = %#x, fmt reference %#x", s, v, got, want)
			}
		}
	}
}
