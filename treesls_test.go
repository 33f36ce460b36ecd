package treesls

// Integration tests through the public facade: the API a downstream user
// sees must support the paper's whole story end to end.

import (
	"fmt"
	"testing"

	"treesls/internal/caps"
)

func TestPublicAPILifecycle(t *testing.T) {
	m := New(DefaultConfig())
	p, err := m.NewProcess("app", 2)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := p.Mmap(8, PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(p, p.MainThread(), func(e *Env) error {
		return e.Write(va, []byte("public api"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency() <= 0 {
		t.Error("no simulated time charged")
	}
	rep := m.TakeCheckpoint()
	if rep.Version == 0 || rep.STWTotal <= 0 {
		t.Errorf("report = %+v", rep)
	}
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p = m.Process("app")
	buf := make([]byte, 10)
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error { return e.Read(va, buf) }); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "public api" {
		t.Errorf("restored = %q", buf)
	}
}

func TestPublicAPIExtSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	m := New(cfg)
	drv, err := NewExtSyncDriver(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	drv.SetDeliver(func(seq uint64, payload []byte, at Time) { delivered++ })
	if _, err := drv.Send(&m.Cores[0].Lane, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("visible before checkpoint")
	}
	m.TakeCheckpoint()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestPublicAPIEideticHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.Checkpoint.EideticVersions = 8
	m := New(cfg)
	p, _ := m.NewProcess("app", 1)
	th := p.MainThread()
	for v := 1; v <= 6; v++ {
		vv := uint64(v)
		m.Run(p, th, func(e *Env) error {
			e.Touch(func(c *caps.Context) { c.R[0] = vv })
			return nil
		})
		m.TakeCheckpoint()
	}
	r := backupRoot(m, th.ID())
	if r == nil {
		t.Fatal("thread has no backup root")
	}
	// The retained versions are the eidetic history plus the committed
	// backup slots.
	versions := make(map[uint64]caps.Snapshot)
	for _, h := range r.History {
		versions[h.Version] = h.Snap
	}
	for i := range r.Backup {
		if r.Backup[i] != nil && r.Ver[i] != 0 && r.Ver[i] <= m.Ckpt.CommittedVersion() {
			versions[r.Ver[i]] = r.Backup[i]
		}
	}
	if len(versions) < 5 {
		t.Fatalf("retained %d versions", len(versions))
	}
	// Navigate to an old version (the eidetic promise of §8).
	snap := versions[3]
	if snap == nil {
		t.Fatal("version 3 not retained")
	}
	ts := snap.(*caps.ThreadSnap)
	if ts.Ctx.R[0] != 3 {
		t.Errorf("version 3 holds R0=%d", ts.Ctx.R[0])
	}
	if versions[999] != nil {
		t.Error("phantom version retained")
	}
	if backupRoot(m, 12345) != nil {
		t.Error("backup root for unknown object")
	}
}

// backupRoot returns the backup-tree root of object id, or nil.
func backupRoot(m *Machine, id uint64) *caps.ORoot {
	var found *caps.ORoot
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if r.ObjID == id {
			found = r
		}
	})
	return found
}

func TestPublicAPIOverCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	m := New(cfg)
	p, _ := m.NewProcess("app", 1)
	va, _, _ := p.Mmap(16, PMODefault)
	for i := 0; i < 16; i++ {
		m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Write(va+uint64(i)*4096, []byte(fmt.Sprintf("pg%02d", i)))
		})
	}
	m.TakeCheckpoint()
	n, err := m.EvictColdPages(16)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing evicted")
	}
	// Everything still readable (major faults swap back in).
	for i := 0; i < 16; i++ {
		buf := make([]byte, 4)
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Read(va+uint64(i)*4096, buf)
		}); err != nil {
			t.Fatal(err)
		}
		if string(buf) != fmt.Sprintf("pg%02d", i) {
			t.Errorf("page %d = %q", i, buf)
		}
	}
	if m.Ckpt.SwapStats().SwappedIn == 0 {
		t.Error("no swap-ins recorded")
	}
}

func TestScalesExported(t *testing.T) {
	q, f := QuickScale(), FullScale()
	if q.KVOps >= f.KVOps || q.Name == f.Name {
		t.Errorf("scales misconfigured: %+v vs %+v", q, f)
	}
}
