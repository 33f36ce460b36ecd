package kernel

import (
	"testing"

	"treesls/internal/caps"
)

// TestIRQDelivery: interrupts are pending state in the capability tree — a
// raised-but-unacked interrupt survives crash/restore, as Table 1 requires
// ("IRQ Notification: a hardware signal sent to the processor").
func TestIRQDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	drv, _ := m.NewProcess("nic-drv", 2)
	handler := drv.Threads[1]
	irq := drv.BindIRQ(11, handler)

	// The handler blocks waiting for work; the IRQ wakes it.
	noti := drv.NewNotification()
	m.Run(drv, handler, func(e *Env) error {
		e.Wait(noti)
		return nil
	})
	if handler.State != caps.ThreadBlocked {
		t.Fatal("handler not blocked")
	}
	m.RaiseIRQ(irq)
	if handler.State != caps.ThreadRunnable {
		t.Error("IRQ did not wake the handler")
	}
	m.RaiseIRQ(irq)
	if irq.Pending != 2 {
		t.Errorf("pending = %d", irq.Pending)
	}

	m.TakeCheckpoint()
	// Post-checkpoint interrupt: rolled back by the crash (the device
	// will re-raise, as the paper's driver protocol requires).
	m.RaiseIRQ(irq)
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	var irq2 *caps.IRQNotification
	m.Tree.Walk(func(o caps.Object) {
		if v, ok := o.(*caps.IRQNotification); ok {
			irq2 = v
		}
	})
	if irq2 == nil || irq2.Line != 11 || irq2.Pending != 2 {
		t.Fatalf("restored irq = %+v", irq2)
	}
	if irq2.Handler == nil || irq2.Handler.ID() != handler.ID() {
		t.Error("handler binding lost")
	}
	// Acking drains the restored pending count.
	p2 := m.Process("nic-drv")
	m.Run(p2, p2.MainThread(), func(e *Env) error {
		if !e.AckIRQ(irq2) || !e.AckIRQ(irq2) {
			t.Error("pending interrupts not ackable")
		}
		if e.AckIRQ(irq2) {
			t.Error("phantom third interrupt")
		}
		return nil
	})
}

// TestAutoEviction: with AutoEvictBelowFrames set, memory pressure triggers
// background eviction, and frames come back at the following commit.
func TestAutoEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	cfg.Mem.NVMFrames = 2048
	cfg.AutoEvictBelowFrames = 1600
	m := New(cfg)
	p, _ := m.NewProcess("hog", 1)
	va, _, _ := p.Mmap(1024, caps.PMODefault)

	// Fill pages until pressure; checkpoint periodically so evicted
	// frames actually free (deferred to commits).
	for i := 0; i < 1024; i++ {
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Write(va+uint64(i)*4096, []byte("fill"))
		}); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if i%128 == 0 {
			m.TakeCheckpoint()
		}
	}
	m.TakeCheckpoint()
	if m.Ckpt.SwapStats().Evicted == 0 {
		t.Fatal("pressure never triggered eviction")
	}
	// Every page is still readable (possibly via swap-in).
	for i := 0; i < 1024; i += 37 {
		buf := make([]byte, 4)
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			return e.Read(va+uint64(i)*4096, buf)
		}); err != nil {
			t.Fatalf("read back page %d: %v", i, err)
		}
		if string(buf) != "fill" {
			t.Fatalf("page %d = %q", i, buf)
		}
	}
}
