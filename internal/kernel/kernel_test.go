package kernel

import (
	"fmt"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/simclock"
)

func newBareMachine(interval simclock.Duration) *Machine {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = interval
	cfg.SkipDefaultServices = true
	return New(cfg)
}

func TestBootDefaultComposition(t *testing.T) {
	m := New(DefaultConfig())
	c := m.Tree.Counts()
	want := map[caps.ObjectKind]int{
		caps.KindCapGroup:     6,
		caps.KindThread:       27,
		caps.KindIPCConn:      9,
		caps.KindNotification: 7,
		caps.KindPMO:          71,
		caps.KindVMSpace:      6,
	}
	for k, n := range want {
		if c[k] != n {
			t.Errorf("default %v = %d, want %d (Table 2 Default row)", k, c[k], n)
		}
	}
}

func TestNewProcessShape(t *testing.T) {
	m := newBareMachine(0)
	p, err := m.NewProcess("app", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads) != 3 {
		t.Errorf("threads = %d", len(p.Threads))
	}
	// 1 CG (+root), 1 VMS, code+data+3 stacks = 5 PMOs.
	c := m.Tree.Counts()
	if c[caps.KindCapGroup] != 2 || c[caps.KindVMSpace] != 1 || c[caps.KindPMO] != 5 || c[caps.KindThread] != 3 {
		t.Errorf("counts = %v", c)
	}
	if _, err := m.NewProcess("app", 1); err == nil {
		t.Error("duplicate process name accepted")
	}
	if m.Sched.Len() != 3 {
		t.Errorf("scheduler holds %d threads", m.Sched.Len())
	}
}

func TestRunChargesTimeAndSpreadsCores(t *testing.T) {
	m := newBareMachine(0)
	p, _ := m.NewProcess("app", 4)
	va, _, _ := p.Mmap(16, caps.PMODefault)

	coresUsed := map[int]bool{}
	for i := 0; i < 8; i++ {
		res, err := m.Run(p, p.Thread(i), func(e *Env) error {
			return e.Write(va+uint64(i*4096), []byte("data"))
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency() <= 0 {
			t.Error("op took no simulated time")
		}
		coresUsed[res.Core] = true
	}
	if len(coresUsed) != 4 {
		t.Errorf("ops used %d cores, want all 4", len(coresUsed))
	}
	if m.Now() <= 0 {
		t.Error("machine clock did not advance")
	}
}

func TestPeriodicCheckpointsFire(t *testing.T) {
	m := newBareMachine(simclock.Millisecond)
	p, _ := m.NewProcess("app", 1)
	va, _, _ := p.Mmap(8, caps.PMODefault)

	// Drive ~5 ms of simulated work.
	for m.Now() < simclock.Time(5*simclock.Millisecond) {
		_, err := m.Run(p, p.MainThread(), func(e *Env) error {
			e.Charge(50 * simclock.Microsecond)
			return e.Write(va, []byte("x"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.Checkpoints < 4 {
		t.Errorf("checkpoints = %d over 5ms at 1ms interval", m.Stats.Checkpoints)
	}
	if m.Ckpt.CommittedVersion() != m.Stats.Checkpoints {
		t.Errorf("version %d != checkpoints %d", m.Ckpt.CommittedVersion(), m.Stats.Checkpoints)
	}
}

func TestSettleToFiresDueCheckpoints(t *testing.T) {
	m := newBareMachine(simclock.Millisecond)
	m.SettleTo(simclock.Time(3500 * simclock.Microsecond))
	if m.Stats.Checkpoints != 3 {
		t.Errorf("checkpoints = %d, want 3", m.Stats.Checkpoints)
	}
	if m.Now() < simclock.Time(3500*simclock.Microsecond) {
		t.Error("SettleTo did not advance the clock")
	}
}

func TestCrashRestoreFunctional(t *testing.T) {
	m := New(DefaultConfig())
	p, err := m.NewProcess("kv", 2)
	if err != nil {
		t.Fatal(err)
	}
	va, _, _ := p.Mmap(8, caps.PMODefault)
	_, err = m.Run(p, p.MainThread(), func(e *Env) error {
		e.Touch(func(c *caps.Context) { c.R[0] = 1234 })
		return e.Write(va, []byte("committed-data"))
	})
	if err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()

	// Post-checkpoint work that must be rolled back.
	_, err = m.Run(p, p.MainThread(), func(e *Env) error {
		e.Touch(func(c *caps.Context) { c.R[0] = 9999 })
		return e.Write(va, []byte("uncommitted!!!"))
	})
	if err != nil {
		t.Fatal(err)
	}

	m.Crash()
	if _, err := m.Run(p, p.MainThread(), func(e *Env) error { return nil }); err == nil {
		t.Error("Run on crashed machine succeeded")
	}
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}

	p2 := m.Process("kv")
	if p2 == nil {
		t.Fatal("process not rebuilt after restore")
	}
	if p2 != p {
		t.Fatal("restore built a new process struct; a pre-crash handle must observe the restored process")
	}
	if len(p2.Threads) != 2 {
		t.Errorf("threads = %d", len(p2.Threads))
	}
	if p2.MainThread().Ctx.R[0] != 1234 {
		t.Errorf("register = %d, want checkpointed 1234", p2.MainThread().Ctx.R[0])
	}
	buf := make([]byte, 14)
	_, err = m.Run(p2, p2.MainThread(), func(e *Env) error { return e.Read(va, buf) })
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "committed-data" {
		t.Errorf("memory = %q", buf)
	}
	// System services rebuilt too.
	for _, svc := range []string{"procmgr", "fsmgr", "netd", "blkdrv", "shell"} {
		if m.Process(svc) == nil {
			t.Errorf("service %s not rebuilt", svc)
		}
	}
	if m.Sched.Len() == 0 {
		t.Error("scheduler queues empty after restore")
	}
}

func TestMmapAfterRestoreWorks(t *testing.T) {
	m := New(DefaultConfig())
	p, _ := m.NewProcess("app", 1)
	p.Mmap(4, caps.PMODefault)
	m.TakeCheckpoint()
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p2 := m.Process("app")
	va, _, err := p2.Mmap(4, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(p2, p2.MainThread(), func(e *Env) error {
		return e.Write(va, []byte("fresh mapping"))
	})
	if err != nil {
		t.Fatalf("write to post-restore mapping: %v", err)
	}
	// Object IDs of new objects must not collide with revived ones.
	seen := map[uint64]string{}
	m.Tree.Walk(func(o caps.Object) {
		if prev, dup := seen[o.ID()]; dup {
			t.Fatalf("duplicate object ID %d (%s)", o.ID(), prev)
		}
		seen[o.ID()] = fmt.Sprintf("%v", o.Kind())
	})
}

func TestCheckpointIntervalAfterRestore(t *testing.T) {
	m := newBareMachine(simclock.Millisecond)
	p, _ := m.NewProcess("app", 1)
	va, _, _ := p.Mmap(4, caps.PMODefault)
	m.Run(p, p.MainThread(), func(e *Env) error { return e.Write(va, []byte("x")) })
	m.TakeCheckpoint()
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if m.NextCheckpointAt() <= m.Now() {
		t.Error("next periodic checkpoint not rescheduled after restore")
	}
	ckpts := m.Stats.Checkpoints
	m.SettleTo(m.Now().Add(2 * simclock.Millisecond))
	if m.Stats.Checkpoints <= ckpts {
		t.Error("periodic checkpointing dead after restore")
	}
}

func TestIPCChargesTime(t *testing.T) {
	m := New(DefaultConfig())
	client, _ := m.NewProcess("client", 1)
	conn := client.Connect(m.Process("fsmgr"))
	res, err := m.Run(client, client.MainThread(), func(e *Env) error {
		e.IPCCall(conn, []byte("open /etc/motd"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency() < 2*m.Model.IPCCall {
		t.Errorf("IPC latency %v below fast-path cost", res.Latency())
	}
	if conn.Seq != 1 {
		t.Errorf("conn seq = %d", conn.Seq)
	}
}

func TestQuiesceDeterministic(t *testing.T) {
	m1 := New(DefaultConfig())
	m2 := New(DefaultConfig())
	r1 := m1.TakeCheckpoint()
	r2 := m2.TakeCheckpoint()
	if r1.IPIWait != r2.IPIWait || r1.CapTree != r2.CapTree || r1.STWTotal != r2.STWTotal {
		t.Errorf("same-seed machines diverge: %+v vs %+v", r1, r2)
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	m3 := New(cfg)
	r3 := m3.TakeCheckpoint()
	if r3.IPIWait == r1.IPIWait {
		t.Log("different seeds produced equal IPI wait (possible, not fatal)")
	}
}

func TestDefaultSTWTimeBallpark(t *testing.T) {
	// Paper: "With no workload, the STW time is as low as ~25 µs."
	m := New(DefaultConfig())
	m.TakeCheckpoint() // full round
	rep := m.TakeCheckpoint()
	us := rep.STWTotal.Micros()
	if us < 3 || us > 120 {
		t.Errorf("default incremental STW = %.1fµs, expected tens of µs", us)
	}
}
