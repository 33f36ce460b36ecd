package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

func stdFNV(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// stdFNVFrom folds b into state h with the textbook byte loop.
func stdFNVFrom(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= FNVPrime
	}
	return h
}

// TestFoldFNVMatchesStdlib pins FoldFNV to hash/fnv bit for bit: every
// length 0–130 (all tail sizes, with zero and nonzero words mixed), whole
// pages that are all-zero, sparse and random, and a nonzero start state.
func TestFoldFNVMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 130; n++ {
		for _, fill := range []string{"zero", "sparse", "random"} {
			b := make([]byte, n)
			switch fill {
			case "sparse":
				for i := range b {
					if rng.Intn(13) == 0 {
						b[i] = byte(rng.Intn(255) + 1)
					}
				}
			case "random":
				rng.Read(b)
			}
			if got, want := FoldFNV(FNVOffset, b), stdFNV(b); got != want {
				t.Fatalf("len %d %s: FoldFNV = %#x, hash/fnv = %#x", n, fill, got, want)
			}
		}
	}
	page := func(fill func([]byte)) []byte {
		b := make([]byte, PageSize)
		fill(b)
		return b
	}
	pages := map[string][]byte{
		"zero": page(func([]byte) {}),
		"sparse": page(func(b []byte) {
			for i := 0; i < 40; i++ {
				b[rng.Intn(PageSize)] = byte(rng.Intn(255) + 1)
			}
		}),
		"random":    page(func(b []byte) { rng.Read(b) }),
		"last-byte": page(func(b []byte) { b[PageSize-1] = 1 }),
	}
	for name, b := range pages {
		if got, want := FoldFNV(FNVOffset, b), stdFNV(b); got != want {
			t.Errorf("%s page: FoldFNV = %#x, hash/fnv = %#x", name, got, want)
		}
		const h0 = 0x0123456789abcdef
		if got, want := FoldFNV(h0, b), stdFNVFrom(h0, b); got != want {
			t.Errorf("%s page from %#x: FoldFNV = %#x, byte loop = %#x", name, uint64(h0), got, want)
		}
		// Folding in pieces is folding the whole.
		if got, want := FoldFNV(FoldFNV(FNVOffset, b[:1001]), b[1001:]), stdFNV(b); got != want {
			t.Errorf("%s page split at 1001: %#x, want %#x", name, got, want)
		}
	}
}

// TestFoldFNV64MatchesFoldFNV: folding a u64 equals folding its eight
// little-endian bytes, from the offset basis and from a nonzero state.
func TestFoldFNV64MatchesFoldFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []uint64{0, ^uint64(0), 1, 1 << 63}
	for i := 0; i < 100; i++ {
		vals = append(vals, rng.Uint64())
	}
	for _, v := range vals {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		for _, h := range []uint64{FNVOffset, 0x0123456789abcdef} {
			if got, want := FoldFNV64(h, v), FoldFNV(h, b[:]); got != want {
				t.Fatalf("FoldFNV64(%#x, %#x) = %#x, FoldFNV over its bytes = %#x", h, v, got, want)
			}
		}
	}
}

// TestFoldFNV64MatchesByteLoop pins FoldFNV64 to the textbook byte loop
// for words of every bit length 0–64, so every count of zero high bytes,
// from random states.
func TestFoldFNV64MatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 64; n++ {
		for i := 0; i < 50; i++ {
			var v uint64
			if n > 0 {
				v = rng.Uint64()>>(64-n) | 1<<(n-1)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h := rng.Uint64()
			if got, want := FoldFNV64(h, v), stdFNVFrom(h, b[:]); got != want {
				t.Fatalf("FoldFNV64(%#x, %#x) = %#x, byte loop = %#x", h, v, got, want)
			}
		}
	}
}

func BenchmarkFoldFNV(b *testing.B) {
	random := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(random)
	for _, bc := range []struct {
		name string
		page []byte
	}{{"zero", make([]byte, PageSize)}, {"random", random}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(PageSize)
			for i := 0; i < b.N; i++ {
				FoldFNV(FNVOffset, bc.page)
			}
		})
	}
}
