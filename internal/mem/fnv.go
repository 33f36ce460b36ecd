package mem

import (
	"encoding/binary"
	"math/bits"
)

// FNV-1a (64-bit) parameters. FNVOffset is the standard offset basis that
// hash/fnv's New64a starts from; folding byte c into state h is
// (h ^ c) * FNVPrime.
const (
	FNVOffset = 14695981039346656037
	FNVPrime  = 1099511628211
	// fnvPrime8 is FNVPrime^8 mod 2^64: the effect of folding eight zero
	// bytes, since XOR with a zero byte leaves the state unchanged.
	// fnvPrime64 = fnvPrime8^8 mod 2^64 folds a zero cache line.
	fnvPrime8  = FNVPrime * FNVPrime * FNVPrime * FNVPrime * FNVPrime * FNVPrime * FNVPrime * FNVPrime % (1 << 64)
	fnvPrime64 = fnvPrime8 * fnvPrime8 * fnvPrime8 * fnvPrime8 * fnvPrime8 * fnvPrime8 * fnvPrime8 * fnvPrime8 % (1 << 64)
)

// FoldFNV folds b into the FNV-1a state h and returns the new state;
// FoldFNV(FNVOffset, b) equals hash/fnv's New64a sum of b bit for bit. It
// reads b an 8-byte word at a time and folds an all-zero word (or an
// all-zero 64-byte run starting there) with a single multiply, which makes
// hashing mostly-zero pages cheap.
func FoldFNV(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		if w == 0 {
			if len(b) >= LineSize && zeroLine(b) {
				h *= fnvPrime64
				b = b[LineSize-8:]
			} else {
				h *= fnvPrime8
			}
			continue
		}
		h = FoldFNV64(h, w)
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= FNVPrime
	}
	return h
}

// fnvPrimePow[k] is FNVPrime^k mod 2^64: the effect of folding k zero
// bytes.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * FNVPrime
	}
	return p
}()

// FoldFNV64 folds v's eight bytes, least significant first, into the FNV-1a
// state h: FoldFNV64(h, v) equals FoldFNV(h, b) for b the little-endian
// encoding of v, without building b. It folds the bytes up to the highest
// nonzero one and the k zero bytes above it as one multiply by prime^k.
func FoldFNV64(h, v uint64) uint64 {
	zeros := bits.LeadingZeros64(v) / 8
	for i := zeros; i < 8; i++ {
		h = (h ^ v&0xff) * FNVPrime
		v >>= 8
	}
	if zeros > 0 {
		h *= fnvPrimePow[zeros]
	}
	return h
}

// zeroLine reports whether the first LineSize bytes of b are all zero.
func zeroLine(b []byte) bool {
	b = b[:LineSize]
	le := binary.LittleEndian
	return le.Uint64(b[0:])|le.Uint64(b[8:])|le.Uint64(b[16:])|le.Uint64(b[24:])|
		le.Uint64(b[32:])|le.Uint64(b[40:])|le.Uint64(b[48:])|le.Uint64(b[56:]) == 0
}
