package extsync

import (
	"fmt"
	"testing"

	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

type delivered struct {
	seq     uint64
	payload string
	at      simclock.Time
}

func newRig(t testing.TB, capacity uint64) (*kernel.Machine, *Driver, *[]delivered) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0 // manual checkpoints for precise control
	m := kernel.New(cfg)
	d, err := NewDriver(m, capacity)
	if err != nil {
		t.Fatal(err)
	}
	var log []delivered
	d.SetDeliver(func(seq uint64, payload []byte, at simclock.Time) {
		log = append(log, delivered{seq, string(payload), at})
	})
	return m, d, &log
}

func lane(m *kernel.Machine) *simclock.Lane { return &m.Cores[0].Lane }

func TestMessagesDelayedUntilCheckpoint(t *testing.T) {
	m, d, log := newRig(t, 64)
	seq, err := d.Send(lane(m), []byte("reply-1"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Errorf("seq = %d", seq)
	}
	if len(*log) != 0 {
		t.Fatal("message visible before checkpoint")
	}
	if d.Pending(lane(m)) != 1 {
		t.Errorf("pending = %d", d.Pending(lane(m)))
	}

	m.TakeCheckpoint()
	if len(*log) != 1 || (*log)[0].payload != "reply-1" {
		t.Fatalf("delivered = %+v", *log)
	}
	if d.Pending(lane(m)) != 0 {
		t.Error("pending not drained")
	}
	// Delivery time is within the checkpoint, after the send.
	if (*log)[0].at <= 0 {
		t.Error("no delivery timestamp")
	}
}

func TestDeliveryOrderAndBatching(t *testing.T) {
	m, d, log := newRig(t, 64)
	for i := 0; i < 10; i++ {
		if _, err := d.Send(lane(m), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	if len(*log) != 10 {
		t.Fatalf("delivered %d", len(*log))
	}
	for i, e := range *log {
		if e.seq != uint64(i) || e.payload != fmt.Sprintf("m%d", i) {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	// A second checkpoint with nothing pending delivers nothing more.
	m.TakeCheckpoint()
	if len(*log) != 10 {
		t.Error("redelivery occurred")
	}
}

func TestUncheckpointedMessagesDiscardedOnRestore(t *testing.T) {
	m, d, log := newRig(t, 64)
	d.Send(lane(m), []byte("durable"))
	m.TakeCheckpoint() // delivers "durable"

	// msg appended after the checkpoint: the client must never see it.
	d.Send(lane(m), []byte("ghost"))
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Discarded != 1 {
		t.Errorf("discarded = %d", d.Stats.Discarded)
	}
	// After restore the ring works again; sequence numbers restart at the
	// discarded position.
	seq, err := d.Send(lane(m), []byte("resent"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Errorf("post-restore seq = %d, want 1 (ghost's slot reused)", seq)
	}
	m.TakeCheckpoint()
	want := []string{"durable", "resent"}
	if len(*log) != 2 {
		t.Fatalf("delivered = %+v", *log)
	}
	for i, w := range want {
		if (*log)[i].payload != w {
			t.Errorf("delivery %d = %q, want %q", i, (*log)[i].payload, w)
		}
	}
}

// The headline invariant: a client that received a response can never lose
// the state it acknowledges, across any crash point.
func TestAckedImpliesDurable(t *testing.T) {
	m, d, log := newRig(t, 256)
	// The "application state" is one counter in a normal (rolled-back)
	// PMO; each op increments it and sends the new value as the response.
	app, err := m.NewProcess("counter", 1)
	if err != nil {
		t.Fatal(err)
	}
	va, _, _ := app.Mmap(1, 0)

	counterAt := func() uint64 {
		var v uint64
		p := m.Process("counter")
		m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			var err error
			v, err = e.ReadU64(va)
			return err
		})
		return v
	}

	increments := 0
	for round := 0; round < 10; round++ {
		// A few ops...
		for i := 0; i < 3; i++ {
			p := m.Process("counter")
			_, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
				v, err := e.ReadU64(va)
				if err != nil {
					return err
				}
				if err := e.WriteU64(va, v+1); err != nil {
					return err
				}
				_, err = d.Send(e.Lane, []byte{byte(v + 1)})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			increments++
		}
		// ... then either a checkpoint or a crash.
		if round%3 == 2 {
			m.Crash()
			if err := m.Restore(); err != nil {
				t.Fatal(err)
			}
		} else {
			m.TakeCheckpoint()
		}
		// Invariant: every delivered ack value <= current durable
		// counter value.
		cur := counterAt()
		for _, e := range *log {
			if uint64(e.payload[0]) > cur {
				t.Fatalf("round %d: client saw ack %d but counter rolled back to %d",
					round, e.payload[0], cur)
			}
		}
	}
	if len(*log) == 0 {
		t.Fatal("no deliveries at all")
	}
	if d.Stats.Discarded == 0 {
		t.Error("test never exercised the discard path")
	}
}

func TestRingBackpressure(t *testing.T) {
	m, d, _ := newRig(t, 4)
	for i := 0; i < 4; i++ {
		if _, err := d.Send(lane(m), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Send(lane(m), []byte("overflow")); err == nil {
		t.Fatal("full ring accepted a message")
	}
	if d.Stats.Full != 1 {
		t.Errorf("full count = %d", d.Stats.Full)
	}
	// Checkpoint drains the ring; sends work again.
	m.TakeCheckpoint()
	if _, err := d.Send(lane(m), []byte("ok")); err != nil {
		t.Errorf("send after drain failed: %v", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	m, d, _ := newRig(t, 8)
	if _, err := d.Send(lane(m), make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := d.Send(lane(m), make([]byte, MaxPayload)); err != nil {
		t.Errorf("max payload rejected: %v", err)
	}
}

func TestSendChargesTime(t *testing.T) {
	m, d, _ := newRig(t, 8)
	before := lane(m).Now()
	d.Send(lane(m), []byte("timed"))
	if lane(m).Now().Sub(before) < m.Model.IPCCall {
		t.Error("send below IPC cost")
	}
}

func TestRingWraparound(t *testing.T) {
	m, d, log := newRig(t, 4)
	// 12 messages through a 4-slot ring: slots recycle after each
	// checkpoint releases them.
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 4; i++ {
			if _, err := d.Send(lane(m), []byte(fmt.Sprintf("b%d-m%d", batch, i))); err != nil {
				t.Fatalf("batch %d msg %d: %v", batch, i, err)
			}
		}
		m.TakeCheckpoint()
	}
	if len(*log) != 12 {
		t.Fatalf("delivered %d", len(*log))
	}
	for i, e := range *log {
		want := fmt.Sprintf("b%d-m%d", i/4, i%4)
		if e.payload != want || e.seq != uint64(i) {
			t.Errorf("delivery %d = %q seq %d, want %q", i, e.payload, e.seq, want)
		}
	}
}

func TestSurvivesManyCrashCycles(t *testing.T) {
	m, d, log := newRig(t, 128)
	for cycle := 0; cycle < 8; cycle++ {
		d.Send(lane(m), []byte(fmt.Sprintf("c%d", cycle)))
		m.TakeCheckpoint()
		d.Send(lane(m), []byte("lost"))
		m.Crash()
		if err := m.Restore(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	for _, e := range *log {
		if e.payload == "lost" {
			t.Fatal("uncheckpointed message escaped")
		}
	}
	if len(*log) != 8 {
		t.Errorf("delivered %d, want 8", len(*log))
	}
}

// releaseBatch is the unit of the release gate and benchmark: 32 messages of
// 1 to 187 bytes sent, then released by a commit callback.
func releaseBatch(tb testing.TB, m *kernel.Machine, d *Driver, payload []byte) {
	for i := 0; i < 32; i++ {
		if _, err := d.Send(lane(m), payload[:1+i*6]); err != nil {
			tb.Fatal(err)
		}
	}
	d.OnCheckpoint(m.Ckpt.CommittedVersion(), lane(m))
}

// releaseRig is a driver on a machine in the given persistence mode whose
// deliveries only count bytes.
func releaseRig(tb testing.TB, mode mem.PersistMode) (*kernel.Machine, *Driver, *int) {
	tb.Helper()
	cfg := kernel.DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.Mem.Persist = mode
	m := kernel.New(cfg)
	d, err := NewDriver(m, 64)
	if err != nil {
		tb.Fatal(err)
	}
	got := new(int)
	d.SetDeliver(func(_ uint64, payload []byte, _ simclock.Time) { *got += len(payload) })
	return m, d, got
}

// TestReleaseAllocatesNothing is the allocation gate of the commit-time
// release: once warm, sending and releasing 32 messages allocates nothing
// in either persistence mode. Release reads every payload into one buffer
// the driver reuses.
func TestReleaseAllocatesNothing(t *testing.T) {
	payload := make([]byte, MaxPayload)
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			m, d, got := releaseRig(t, mode)
			allocs := testing.AllocsPerRun(20, func() { releaseBatch(t, m, d, payload) })
			if allocs != 0 {
				t.Errorf("a warm release of 32 messages allocates %.1f times, want 0", allocs)
			}
			// AllocsPerRun runs the batch once more to warm up.
			if want := 21 * (32 + 6*31*32/2); *got != want {
				t.Errorf("delivered %d payload bytes, want %d", *got, want)
			}
		})
	}
}

// BenchmarkRelease sends 32 messages and releases them at a commit, on an
// ADR machine.
func BenchmarkRelease(b *testing.B) {
	payload := make([]byte, MaxPayload)
	m, d, _ := releaseRig(b, mem.ModeADR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		releaseBatch(b, m, d, payload)
	}
}
