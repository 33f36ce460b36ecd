package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the default number of virtual nodes per shard. High
// enough that seeded key sets balance within the bound the property test
// states, low enough that Owner's binary search stays cheap.
const DefaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a versioned consistent-hash ring with virtual nodes over an
// explicit member set: each member shard owns Vnodes points on a 64-bit
// circle, and a key belongs to the shard owning the first point at or
// clockwise after the key's hash. Because a shard's points depend only on
// its own id, changing the member set moves exactly the keys the arriving
// shard wins (or the departing shard held) — every other key keeps not just
// its owner but its exact owning virtual node.
//
// The version is bumped on every membership change (WithShard/WithoutShard)
// and is what a migration epoch durably commits in the cut log: recovery
// re-derives the routing ring from the newest announced cut's
// (RingVersion, RingMembers) pair.
type Ring struct {
	version uint64
	members []int // sorted member shard ids
	vnodes  int
	points  []ringPoint // sorted by hash
}

// NewRing builds the ring for shards 0..shards-1 with `vnodes` virtual
// nodes each (0 = DefaultVnodes), at ring version 1.
func NewRing(shards, vnodes int) *Ring {
	if shards <= 0 {
		panic("cluster: ring needs at least one shard")
	}
	members := make([]int, shards)
	for i := range members {
		members[i] = i
	}
	return NewRingOf(members, vnodes, 1)
}

// NewRingOf builds the ring over an explicit member set at an explicit ring
// version (the form recovery uses to re-derive routing from a cut).
func NewRingOf(members []int, vnodes int, version uint64) *Ring {
	if len(members) == 0 {
		panic("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	r := &Ring{version: version, members: ms, vnodes: vnodes}
	for _, s := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between different shards' vnodes is
		// astronomically unlikely but must still order deterministically.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Version returns the ring version (bumped on every membership change).
func (r *Ring) Version() uint64 { return r.version }

// Members returns the sorted member shard ids (a copy).
func (r *Ring) Members() []int { return append([]int(nil), r.members...) }

// Has reports whether shard id is a ring member.
func (r *Ring) Has(id int) bool {
	i := sort.SearchInts(r.members, id)
	return i < len(r.members) && r.members[i] == id
}

// WithShard returns a new ring (version+1) with shard id added.
func (r *Ring) WithShard(id int) *Ring {
	if r.Has(id) {
		panic(fmt.Sprintf("cluster: shard %d already on the ring", id))
	}
	return NewRingOf(append(r.Members(), id), r.vnodes, r.version+1)
}

// WithoutShard returns a new ring (version+1) with shard id removed.
func (r *Ring) WithoutShard(id int) *Ring {
	if !r.Has(id) {
		panic(fmt.Sprintf("cluster: shard %d not on the ring", id))
	}
	if len(r.members) == 1 {
		panic("cluster: cannot remove the last ring member")
	}
	ms := make([]int, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != id {
			ms = append(ms, m)
		}
	}
	return NewRingOf(ms, r.vnodes, r.version+1)
}

// Shards returns the number of member shards on the ring.
func (r *Ring) Shards() int { return len(r.members) }

// Vnodes returns the virtual nodes per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Owner maps a key to its owning shard.
func (r *Ring) Owner(key []byte) int {
	s, _ := r.OwnerVnode(key)
	return s
}

// OwnerVnode maps a key to its owning shard AND the hash of the exact
// virtual node that owns it. The minimal-movement property test uses the
// vnode hash to assert that keys which do not move across a membership
// change keep their precise owning point, not merely the same shard.
func (r *Ring) OwnerVnode(key []byte) (int, uint64) {
	h := KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point, the circle's first point owns
	}
	return r.points[i].shard, r.points[i].hash
}

// KeyHash is the ring's key hash: FNV-1a finalized through mix64. Raw
// FNV-1a diffuses a trailing byte poorly into the high bits that order the
// circle, so similar strings would clump; the finalizer fixes that.
func KeyHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return mix64(h.Sum64())
}

// vnodeHash places virtual node v of shard s on the circle. Derived from
// the pair's textual name so a shard's points are a pure function of its
// own id — the consistent-hashing minimal-movement property depends on it.
func vnodeHash(s, v int) uint64 {
	var buf [48]byte
	b := append(buf[:0], "shard-"...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, "/vnode-"...)
	b = strconv.AppendInt(b, int64(v), 10)
	return KeyHash(b)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche that spreads
// every input bit across the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
