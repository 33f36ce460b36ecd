package kvstore

import (
	"bytes"
	"testing"
)

// TestWarmOpAllocations holds a warm server's per-operation host
// allocations: an overwrite SET allocates nothing and a GET only the value
// it returns. The operation's Env comes from the machine's stack, and find
// reads a key of up to 64 bytes into a stack array. A key longer than that
// takes the heap path and must still be found.
func TestWarmOpAllocations(t *testing.T) {
	s := newServer(t, 0)
	long := bytes.Repeat([]byte("k"), 100)
	for _, key := range [][]byte{[]byte("user:0001"), long} {
		val := append([]byte("value of "), key...)
		for i := 0; i < 3; i++ {
			if _, _, err := s.SetAt(0, 0, key, val); err != nil {
				t.Fatal(err)
			}
		}
		if _, got, ok, err := s.GetAt(0, 0, key); err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("GET of a %d-byte key = %q, %v, %v", len(key), got, ok, err)
		}
	}
	key, val := []byte("user:0001"), []byte("value of user:0001")
	set := testing.AllocsPerRun(100, func() {
		if _, _, err := s.SetAt(0, 0, key, val); err != nil {
			t.Fatal(err)
		}
	})
	if set != 0 {
		t.Errorf("a warm overwrite SET allocates %.1f times, want 0", set)
	}
	get := testing.AllocsPerRun(100, func() {
		if _, _, ok, err := s.GetAt(0, 0, key); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if get != 1 {
		t.Errorf("a warm GET allocates %.1f times, want 1 (the value it returns)", get)
	}
}
