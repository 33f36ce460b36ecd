package caps

// IDSet is a set of object IDs kept as a bitset. Object IDs are dense —
// every tree hands them out from one counter (Tree.NextID) — so one bit per
// ID below the largest member costs less than a map entry per member. A
// walk's visited set stays a few words long.
//
// The zero value is an empty set. It grows when it meets a larger ID, so a
// stale size hint can cost an append but never give a wrong answer.
type IDSet struct{ words []uint64 }

// NewIDSet returns an empty set with room for IDs up to bound.
func NewIDSet(bound uint64) IDSet {
	return IDSet{words: make([]uint64, 0, bound/64+1)}
}

// Add inserts id and reports whether it was absent.
func (s *IDSet) Add(id uint64) bool {
	w, bit := id/64, uint64(1)<<(id%64)
	for uint64(len(s.words)) <= w {
		s.words = append(s.words, 0)
	}
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id uint64) bool {
	w := id / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(id%64)) != 0
}

// Reset empties the set and keeps its storage for the next walk.
func (s *IDSet) Reset() { s.words = s.words[:0] }
