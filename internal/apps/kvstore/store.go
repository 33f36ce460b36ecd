// Package kvstore implements the in-memory key-value stores of the paper's
// evaluation (Redis and Memcached stand-ins): a chained hash table that
// lives entirely in simulated, PMO-backed process memory. Running it on
// TreeSLS makes it persistent with zero persistence code — the paper's
// pitch — while the same store can be paired with a WAL (the Linux-WAL /
// Redis-AOF baseline) for the Figure 13 comparison.
package kvstore

import (
	"fmt"
	"hash/fnv"

	"treesls/internal/kernel"
	"treesls/internal/simclock"

	"treesls/internal/apps/uheap"
)

// Entry layout in heap memory:
//
//	+0  next entry VA (0 = end of chain)
//	+8  key hash
//	+16 key length
//	+24 value length
//	+32 value capacity
//	+40 key bytes (padded to 16)
//	+.. value bytes
const entryHdr = 40

// Store is a handle to a persistent hash table: (heap, header VA). Handles
// are stateless and survive crash/restore.
type Store struct {
	Heap     *uheap.Heap
	HeaderVA uint64
}

// header layout: +0 nbuckets, +8 count, +16 bucket array (nbuckets * 8).

// Create formats a new table with nbuckets chains in heap.
func Create(e *kernel.Env, heap *uheap.Heap, nbuckets uint64) (*Store, error) {
	if nbuckets == 0 {
		nbuckets = 1024
	}
	va, err := heap.Alloc(e, 16+nbuckets*8)
	if err != nil {
		return nil, fmt.Errorf("kvstore: allocating table: %w", err)
	}
	if err := e.WriteU64(va, nbuckets); err != nil {
		return nil, err
	}
	if err := e.WriteU64(va+8, 0); err != nil {
		return nil, err
	}
	zeros := make([]byte, nbuckets*8)
	if err := e.Write(va+16, zeros); err != nil {
		return nil, err
	}
	return &Store{Heap: heap, HeaderVA: va}, nil
}

// Attach re-creates a handle to an existing table.
func Attach(heap *uheap.Heap, headerVA uint64) *Store {
	return &Store{Heap: heap, HeaderVA: headerVA}
}

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// hashCost models the CPU cycles of hashing and key comparison.
func hashCost(n int) simclock.Duration {
	return simclock.Duration(60 + n/2)
}

func pad16(n uint64) uint64 { return (n + 15) &^ 15 }

// bucketVA returns the VA of the bucket head pointer for a hash.
func (s *Store) bucketVA(e *kernel.Env, h uint64) (uint64, error) {
	nb, err := e.ReadU64(s.HeaderVA)
	if err != nil {
		return 0, err
	}
	return s.HeaderVA + 16 + (h%nb)*8, nil
}

// find walks a chain for key, returning (entryVA, prevLinkVA). entryVA is 0
// when absent; prevLinkVA is the VA holding the pointer to entryVA.
func (s *Store) find(e *kernel.Env, key []byte, h uint64) (entryVA, prevLink uint64, err error) {
	bva, err := s.bucketVA(e, h)
	if err != nil {
		return 0, 0, err
	}
	prevLink = bva
	cur, err := e.ReadU64(bva)
	if err != nil {
		return 0, 0, err
	}
	// Keys up to 64 bytes are read into a stack array; longer ones need
	// the heap.
	var small [64]byte
	var kbuf []byte
	if len(key) <= len(small) {
		kbuf = small[:len(key)]
	} else {
		kbuf = make([]byte, len(key))
	}
	for cur != 0 {
		eh, err := e.ReadU64(cur + 8)
		if err != nil {
			return 0, 0, err
		}
		if eh == h {
			klen, err := e.ReadU64(cur + 16)
			if err != nil {
				return 0, 0, err
			}
			if klen == uint64(len(key)) {
				if err := e.Read(cur+entryHdr, kbuf); err != nil {
					return 0, 0, err
				}
				e.Charge(hashCost(len(key)))
				if string(kbuf) == string(key) {
					return cur, prevLink, nil
				}
			}
		}
		prevLink = cur
		cur, err = e.ReadU64(cur)
		if err != nil {
			return 0, 0, err
		}
	}
	return 0, prevLink, nil
}

func (s *Store) entrySize(klen, vcap uint64) uint64 { return entryHdr + pad16(klen) + vcap }

// Set inserts or updates key -> val.
func (s *Store) Set(e *kernel.Env, key, val []byte) error {
	h := hashKey(key)
	e.Charge(hashCost(len(key)))
	cur, _, err := s.find(e, key, h)
	if err != nil {
		return err
	}
	if cur != 0 {
		vcap, err := e.ReadU64(cur + 32)
		if err != nil {
			return err
		}
		if uint64(len(val)) <= vcap {
			klen, err := e.ReadU64(cur + 16)
			if err != nil {
				return err
			}
			if err := e.WriteU64(cur+24, uint64(len(val))); err != nil {
				return err
			}
			return e.Write(cur+entryHdr+pad16(klen), val)
		}
		// Grow: replace in place within the chain.
		if err := s.deleteEntry(e, key, h); err != nil {
			return err
		}
	}
	vcap := pad16(uint64(len(val)))
	eva, err := s.Heap.Alloc(e, s.entrySize(uint64(len(key)), vcap))
	if err != nil {
		return err
	}
	bva, err := s.bucketVA(e, h)
	if err != nil {
		return err
	}
	head, err := e.ReadU64(bva)
	if err != nil {
		return err
	}
	if err := e.WriteU64(eva, head); err != nil {
		return err
	}
	if err := e.WriteU64(eva+8, h); err != nil {
		return err
	}
	if err := e.WriteU64(eva+16, uint64(len(key))); err != nil {
		return err
	}
	if err := e.WriteU64(eva+24, uint64(len(val))); err != nil {
		return err
	}
	if err := e.WriteU64(eva+32, vcap); err != nil {
		return err
	}
	if err := e.Write(eva+entryHdr, key); err != nil {
		return err
	}
	if err := e.Write(eva+entryHdr+pad16(uint64(len(key))), val); err != nil {
		return err
	}
	if err := e.WriteU64(bva, eva); err != nil {
		return err
	}
	cnt, err := e.ReadU64(s.HeaderVA + 8)
	if err != nil {
		return err
	}
	return e.WriteU64(s.HeaderVA+8, cnt+1)
}

// Get returns the value for key, or (nil, false).
func (s *Store) Get(e *kernel.Env, key []byte) ([]byte, bool, error) {
	h := hashKey(key)
	e.Charge(hashCost(len(key)))
	cur, _, err := s.find(e, key, h)
	if err != nil || cur == 0 {
		return nil, false, err
	}
	klen, err := e.ReadU64(cur + 16)
	if err != nil {
		return nil, false, err
	}
	vlen, err := e.ReadU64(cur + 24)
	if err != nil {
		return nil, false, err
	}
	val := make([]byte, vlen)
	if err := e.Read(cur+entryHdr+pad16(klen), val); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(e *kernel.Env, key []byte) (bool, error) {
	h := hashKey(key)
	e.Charge(hashCost(len(key)))
	cur, _, err := s.find(e, key, h)
	if err != nil || cur == 0 {
		return false, err
	}
	if err := s.deleteEntry(e, key, h); err != nil {
		return false, err
	}
	return true, nil
}

func (s *Store) deleteEntry(e *kernel.Env, key []byte, h uint64) error {
	cur, prevLink, err := s.find(e, key, h)
	if err != nil {
		return err
	}
	if cur == 0 {
		return nil
	}
	next, err := e.ReadU64(cur)
	if err != nil {
		return err
	}
	if err := e.WriteU64(prevLink, next); err != nil {
		return err
	}
	klen, _ := e.ReadU64(cur + 16)
	vcap, _ := e.ReadU64(cur + 32)
	if err := s.Heap.Free(e, cur, s.entrySize(klen, vcap)); err != nil {
		return err
	}
	cnt, err := e.ReadU64(s.HeaderVA + 8)
	if err != nil {
		return err
	}
	return e.WriteU64(s.HeaderVA+8, cnt-1)
}

// Count returns the number of live keys.
func (s *Store) Count(e *kernel.Env) (uint64, error) {
	return e.ReadU64(s.HeaderVA + 8)
}

// Keys returns every stored key in deterministic table order (bucket index,
// then chain position). Chain position is itself a pure function of the
// write history, so two runs with identical histories scan identically —
// the property the migration planner's event-log digests rely on.
func (s *Store) Keys(e *kernel.Env) ([][]byte, error) {
	nb, err := e.ReadU64(s.HeaderVA)
	if err != nil {
		return nil, err
	}
	var keys [][]byte
	for b := uint64(0); b < nb; b++ {
		cur, err := e.ReadU64(s.HeaderVA + 16 + b*8)
		if err != nil {
			return nil, err
		}
		for cur != 0 {
			klen, err := e.ReadU64(cur + 16)
			if err != nil {
				return nil, err
			}
			k := make([]byte, klen)
			if err := e.Read(cur+entryHdr, k); err != nil {
				return nil, err
			}
			e.Charge(hashCost(len(k)))
			keys = append(keys, k)
			cur, err = e.ReadU64(cur)
			if err != nil {
				return nil, err
			}
		}
	}
	return keys, nil
}
