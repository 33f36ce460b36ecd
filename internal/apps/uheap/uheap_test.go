package uheap

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
)

func newProc(t *testing.T) (*kernel.Machine, *kernel.Process) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := kernel.New(cfg)
	p, err := m.NewProcess("app", 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func run(t *testing.T, m *kernel.Machine, p *kernel.Process, fn func(e *kernel.Env) error) {
	t.Helper()
	if _, err := m.Run(p, p.MainThread(), fn); err != nil {
		t.Fatal(err)
	}
}

func TestAllocDistinct(t *testing.T) {
	m, p := newProc(t)
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		seen := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			va, err := h.Alloc(e, 48)
			if err != nil {
				return err
			}
			if seen[va] {
				t.Fatalf("VA %#x handed out twice", va)
			}
			if va < h.Base || va+48 > h.Limit {
				t.Fatalf("VA %#x outside heap", va)
			}
			seen[va] = true
		}
		return nil
	})
}

func TestFreeListRecycles(t *testing.T) {
	m, p := newProc(t)
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		a, _ := h.Alloc(e, 100) // class 128
		b, _ := h.Alloc(e, 100)
		if err := h.Free(e, a, 100); err != nil {
			return err
		}
		if err := h.Free(e, b, 100); err != nil {
			return err
		}
		c, _ := h.Alloc(e, 100) // LIFO: b comes back first
		d, _ := h.Alloc(e, 100)
		if c != b || d != a {
			t.Errorf("recycling order: got %#x,%#x want %#x,%#x", c, d, b, a)
		}
		// Different class does not steal from the 128 list.
		x, _ := h.Alloc(e, 1000)
		if x == a || x == b {
			t.Error("cross-class recycling")
		}
		return nil
	})
}

func TestAllocWritesSurvive(t *testing.T) {
	m, p := newProc(t)
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		va, _ := h.Alloc(e, 64)
		if err := e.Write(va, []byte("payload")); err != nil {
			return err
		}
		buf := make([]byte, 7)
		if err := e.Read(va, buf); err != nil {
			return err
		}
		if string(buf) != "payload" {
			t.Errorf("read %q", buf)
		}
		return nil
	})
}

func TestOutOfHeap(t *testing.T) {
	m, p := newProc(t)
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 1) // single page
		if err != nil {
			return err
		}
		if _, err := h.Alloc(e, 8192); err == nil {
			t.Error("oversized alloc succeeded")
		}
		// Fill the page with small blocks until exhaustion.
		n := 0
		for {
			if _, err := h.Alloc(e, 32); err != nil {
				break
			}
			n++
		}
		if n == 0 || n > 4096/32 {
			t.Errorf("allocated %d blocks from one page", n)
		}
		return nil
	})
}

// TestUsedAccounting reads the bump word: it counts the bytes handed out
// past the header.
func TestUsedAccounting(t *testing.T) {
	m, p := newProc(t)
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		used := func() uint64 {
			bump, err := e.ReadU64(h.Base)
			if err != nil {
				t.Fatal(err)
			}
			return bump - h.Base - headerSize
		}
		if u0 := used(); u0 != 0 {
			t.Errorf("fresh heap used = %d", u0)
		}
		h.Alloc(e, 64)
		if u1 := used(); u1 != 64 {
			t.Errorf("used = %d, want 64", u1)
		}
		return nil
	})
}

func TestAttachSeesSameHeap(t *testing.T) {
	m, p := newProc(t)
	var base, limit, va uint64
	run(t, m, p, func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		base, limit = h.Base, h.Limit
		va, _ = h.Alloc(e, 32)
		return e.Write(va, []byte("shared"))
	})
	run(t, m, p, func(e *kernel.Env) error {
		h := Attach(base, limit)
		// A new alloc must not clobber the old one.
		va2, err := h.Alloc(e, 32)
		if err != nil {
			return err
		}
		if va2 == va {
			t.Error("attach restarted the bump pointer")
		}
		buf := make([]byte, 6)
		if err := e.Read(va, buf); err != nil {
			return err
		}
		if string(buf) != "shared" {
			t.Errorf("data lost: %q", buf)
		}
		return nil
	})
}

func TestHeapSurvivesCrashRestore(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	p, _ := m.NewProcess("app", 1)
	var base, limit, va uint64
	if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		h, err := New(e, 16)
		if err != nil {
			return err
		}
		base, limit = h.Base, h.Limit
		va, _ = h.Alloc(e, 64)
		return e.Write(va, []byte("durable-block"))
	}); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p2 := m.Process("app")
	if _, err := m.Run(p2, p2.MainThread(), func(e *kernel.Env) error {
		h := Attach(base, limit)
		buf := make([]byte, 13)
		if err := e.Read(va, buf); err != nil {
			return err
		}
		if string(buf) != "durable-block" {
			t.Errorf("restored block = %q", buf)
		}
		// The allocator metadata is consistent: further allocs work.
		va2, err := h.Alloc(e, 64)
		if err != nil {
			return err
		}
		if va2 <= va {
			t.Error("bump pointer rolled back past live block")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = caps.PMODefault
}
