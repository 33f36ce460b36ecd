package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"treesls/internal/baseline/disk"
	"treesls/internal/baseline/wal"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

func newServer(t *testing.T, interval simclock.Duration) *Server {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = interval
	m := kernel.New(cfg)
	s, err := NewServer(m, ServerConfig{Name: "kv", Threads: 4, HeapPages: 1024, Buckets: 512})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetGetDelete(t *testing.T) {
	s := newServer(t, 0)
	if _, _, err := s.Set(0, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, v, ok, err := s.Get(0, []byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, _, ok, _ := s.Get(0, []byte("absent")); ok {
		t.Error("absent key found")
	}
	_, ok, err = s.Delete(0, []byte("k1"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, _, ok, _ := s.Get(0, []byte("k1")); ok {
		t.Error("deleted key found")
	}
	if _, ok, _ := s.Delete(0, []byte("k1")); ok {
		t.Error("double delete succeeded")
	}
}

func TestOverwriteInPlaceAndGrow(t *testing.T) {
	s := newServer(t, 0)
	s.Set(0, []byte("k"), []byte("short"))
	s.Set(0, []byte("k"), []byte("tiny")) // fits in place
	_, v, _, _ := s.Get(0, []byte("k"))
	if string(v) != "tiny" {
		t.Errorf("v = %q", v)
	}
	grown := make([]byte, 200)
	for i := range grown {
		grown[i] = 'G'
	}
	s.Set(0, []byte("k"), grown) // forces reallocation
	_, v, _, _ = s.Get(0, []byte("k"))
	if len(v) != 200 || v[0] != 'G' {
		t.Errorf("grown v = %d bytes", len(v))
	}
	n, _ := s.Count()
	if n != 1 {
		t.Errorf("count = %d", n)
	}
}

func TestManyKeysMatchModel(t *testing.T) {
	s := newServer(t, 0)
	rng := rand.New(rand.NewSource(3))
	model := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", rng.Int())
			if _, _, err := s.Set(i, []byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 2:
			_, ok, err := s.Delete(i, []byte(k))
			if err != nil {
				t.Fatal(err)
			}
			_, want := model[k]
			if ok != want {
				t.Fatalf("delete %q = %v, model %v", k, ok, want)
			}
			delete(model, k)
		}
	}
	n, _ := s.Count()
	if int(n) != len(model) {
		t.Fatalf("count = %d, model %d", n, len(model))
	}
	for k, want := range model {
		_, v, ok, err := s.Get(0, []byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q,%v,%v want %q", k, v, ok, err, want)
		}
	}
}

// The paper's §7.2 functional test: run a KV store, crash at an arbitrary
// point, reboot, and the store continues with the last checkpoint's state.
func TestCrashRestoreKeepsCheckpointedState(t *testing.T) {
	s := newServer(t, simclock.Millisecond)
	m := s.Machine()

	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := s.Set(i, []byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	countAtCkpt, _ := s.Count()

	// Uncheckpointed tail (interval 1ms, these ops take < 1ms here).
	for i := 200; i < 220; i++ {
		s.Set(i, []byte(fmt.Sprintf("fresh%d", i)), []byte("x"))
	}

	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}

	n, err := s.Count()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) < int64(countAtCkpt) || int64(n) > int64(countAtCkpt)+20 {
		t.Errorf("count after restore = %d (at last ckpt %d)", n, countAtCkpt)
	}
	// All keys from before the explicit checkpoint must be present.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		_, v, ok, err := s.Get(0, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("checkpointed key %q lost (got %q, %v)", k, v, ok)
		}
	}
	// The server keeps working after recovery.
	if _, _, err := s.Set(0, []byte("post"), []byte("restore")); err != nil {
		t.Fatal(err)
	}
	_, v, ok, _ := s.Get(0, []byte("post"))
	if !ok || string(v) != "restore" {
		t.Error("server wedged after restore")
	}
}

func TestHighFrequencyCheckpointingUnderLoad(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = simclock.Millisecond
	m := kernel.New(cfg)
	s, err := NewServer(m, ServerConfig{Name: "kv", Threads: 4, HeapPages: 1024, Buckets: 512})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("k%d", i%100)
		if _, _, err := s.Set(i, []byte(k), val); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.Checkpoints == 0 {
		t.Fatal("no periodic checkpoints under load")
	}
	// Hot keys live on repeatedly-written pages: hybrid copy must have
	// cached some.
	if m.Ckpt.CachedPages() == 0 {
		t.Error("hybrid copy cached nothing under a hot-key workload")
	}
}

func TestWALConfigChargesCriticalPath(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	log := wal.New(disk.New(disk.PMDAX, m.Model))
	s, err := NewServer(m, ServerConfig{Name: "redis-wal", Threads: 1, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	m2 := kernel.New(cfg)
	s2, err := NewServer(m2, ServerConfig{Name: "redis", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	r1, _, _ := s.Set(0, []byte("key"), []byte("value"))
	r2, _, _ := s2.Set(0, []byte("key"), []byte("value"))
	if r1.Latency() <= r2.Latency() {
		t.Errorf("WAL set (%v) should cost more than plain set (%v)", r1.Latency(), r2.Latency())
	}
	if log.Stats.Records != 1 {
		t.Errorf("wal records = %d", log.Stats.Records)
	}
}

// peek reads key straight from the store, bypassing the response path, so
// it works while the extsync ring is full.
func peek(t *testing.T, s *Server, key string) string {
	t.Helper()
	p, err := s.proc()
	if err != nil {
		t.Fatal(err)
	}
	var val []byte
	if _, err := s.m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		var err error
		val, _, err = s.store().Get(e, []byte(key))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return string(val)
}

// TestRingFullSetHasNoEffect: a SET whose response the full extsync ring
// refuses fails with ErrRingFull and leaves the store untouched — the old
// value survives the refusal, the next checkpoint, and a crash and restore.
func TestRingFullSetHasNoEffect(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	d, err := extsync.NewDriver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.SetDeliver(func(uint64, []byte, simclock.Time) {})
	s, err := NewServer(m, ServerConfig{Name: "kv", Threads: 1, HeapPages: 64, Buckets: 16, Ext: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"k", "old"}, {"other", "x"}} {
		if _, _, err := s.Set(0, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = s.Set(0, []byte("k"), []byte("new"))
	if !errors.Is(err, extsync.ErrRingFull) {
		t.Fatalf("third SET on a 2-slot ring: err = %v, want ErrRingFull", err)
	}
	if d.Stats.Full != 1 {
		t.Errorf("Stats.Full = %d, want 1", d.Stats.Full)
	}
	if got := peek(t, s, "k"); got != "old" {
		t.Fatalf("refused SET applied: k = %q", got)
	}
	get := func(when string) {
		t.Helper()
		_, v, ok, err := s.Get(0, []byte("k"))
		if err != nil || !ok || string(v) != "old" {
			t.Fatalf("%s: Get(k) = %q, %v, %v; want \"old\"", when, v, ok, err)
		}
	}
	m.TakeCheckpoint()
	get("after the checkpoint")
	m.TakeCheckpoint()
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	get("after crash and restore")
}
