package net

import (
	"testing"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

func testMachine(t *testing.T, gated bool, every simclock.Duration) (*kernel.Machine, *Network, *kvstore.Server, *Fleet) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = every
	cfg.Seed = 42
	cfg.Obs = obs.New()
	cfg.Audit = true
	m := kernel.New(cfg)
	nw, err := New(m, Config{Gated: gated, RingSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	scfg := kvstore.ServerConfig{Name: "redis", Threads: 4, HeapPages: 512, Buckets: 128, EchoValue: true}
	if gated {
		scfg.Ext = nw.Driver
	}
	srv, err := kvstore.NewServer(m, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(nw, srv, FleetConfig{Clients: 3, Requests: 6, Window: 2, ValueBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint() // base state
	return m, nw, srv, fleet
}

func TestNewRequiresNetd(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.SkipDefaultServices = true
	m := kernel.New(cfg)
	if _, err := New(m, Config{}); err == nil {
		t.Fatal("New succeeded on a machine without netd")
	}
}

func TestFleetRejectsOversizedGatedValue(t *testing.T) {
	m, nw, srv, _ := testMachine(t, true, simclock.Millisecond)
	_ = m
	if _, err := NewFleet(nw, srv, FleetConfig{ValueBytes: 4096}); err == nil {
		t.Fatal("NewFleet accepted a value that cannot fit a gated response slot")
	}
}

// TestWireTiming checks the frame flight-time arithmetic: arrival is submit
// plus propagation plus per-byte serialization of payload+header.
func TestWireTiming(t *testing.T) {
	m, nw, _, _ := testMachine(t, false, 0)
	payload := 100
	nw.SendRequest(1, 1, payload, 1000)
	at, ok := nw.NextArrival()
	if !ok {
		t.Fatal("no queued frame after SendRequest")
	}
	want := simclock.Time(1000).
		Add(m.Model.NetPropagation).
		Add(simclock.Duration(payload+FrameHeader) * m.Model.NetWireByte)
	if at != want {
		t.Errorf("arrival %d, want %d", at, want)
	}
	if nw.QueuedRequests() != 1 {
		t.Errorf("queued %d, want 1", nw.QueuedRequests())
	}
}

// TestDispatchOrdering sends frames with colliding arrival times and checks
// the (arrival, conn, req) deterministic order.
func TestDispatchOrdering(t *testing.T) {
	_, nw, _, _ := testMachine(t, false, 0)
	// Same submit+size → same arrival for different conns; conn 2 sends
	// first but conn 0 must dispatch first.
	nw.SendRequest(2, 1, 64, 500)
	nw.SendRequest(0, 2, 64, 500)
	nw.SendRequest(0, 1, 64, 500)
	var got []Packet
	for {
		ok, err := nw.DispatchNext(func(p Packet, _ simclock.Time) error {
			got = append(got, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if len(got) != 3 {
		t.Fatalf("dispatched %d frames, want 3", len(got))
	}
	wantOrder := [][2]uint64{{0, 1}, {0, 2}, {2, 1}}
	for i, p := range got {
		if uint64(p.Conn) != wantOrder[i][0] || p.Req != wantOrder[i][1] {
			t.Errorf("dispatch %d: conn %d req %d, want conn %d req %d",
				i, p.Conn, p.Req, wantOrder[i][0], wantOrder[i][1])
		}
	}
}

// TestGatedRunReleasesOnCommit drives a full gated fleet and checks that
// every acknowledgement waited for a checkpoint: no client latency can be
// below the time to the first covering commit, and released == acked.
func TestGatedRunReleasesOnCommit(t *testing.T) {
	m, nw, _, fleet := testMachine(t, true, simclock.Millisecond)
	if err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(3 * 6)
	if fleet.TotalAcked() != want {
		t.Fatalf("acked %d, want %d", fleet.TotalAcked(), want)
	}
	if nw.Driver.Stats.Delivered != want {
		t.Errorf("gate released %d, want %d", nw.Driver.Stats.Delivered, want)
	}
	if nw.InFlight() != 0 {
		t.Errorf("%d responses still buffered after completion", nw.InFlight())
	}
	if len(fleet.Violations) != 0 {
		t.Errorf("FIFO violations: %v", fleet.Violations)
	}
	// Every request was answered after a commit; the machine must have
	// checkpointed at least once and no latency may undercut the direct
	// path's floor by being acknowledged pre-commit.
	if m.Stats.Checkpoints < 2 { // base + at least one covering commit
		t.Errorf("only %d checkpoints over a gated run", m.Stats.Checkpoints)
	}
	for i, d := range fleet.Latencies {
		if d <= 0 {
			t.Fatalf("latency[%d] = %d: non-causal acknowledgement", i, d)
		}
	}
	if fleet.DupAcks != 0 {
		t.Errorf("%d duplicate acks", fleet.DupAcks)
	}
}

// TestGatedFleetStartsAnywhere starts a gated fleet at every microsecond of
// the window before a periodic checkpoint deadline, so some first
// operations straddle the deadline and the checkpoint RunAt fires at their
// end releases their responses. Every response must still be attributed
// and acknowledged in order.
func TestGatedFleetStartsAnywhere(t *testing.T) {
	straddled := 0
	for lead := simclock.Duration(0); lead < 60*simclock.Microsecond; lead += simclock.Microsecond {
		m, nw, _, fleet := testMachine(t, true, simclock.Millisecond)
		m.SettleTo(m.NextCheckpointAt().Add(-lead))
		ckpts := m.Stats.Checkpoints
		for nw.Stats.Dispatched == 0 {
			if _, err := fleet.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.Stats.Checkpoints != ckpts && nw.Stats.Responses > 0 {
			straddled++
		}
		if err := fleet.Run(); err != nil {
			t.Fatalf("lead %v: %v", lead, err)
		}
		if len(fleet.Violations) != 0 {
			t.Fatalf("lead %v: FIFO violations: %v", lead, fleet.Violations)
		}
		if nw.Stats.UnknownSeq != 0 {
			t.Fatalf("lead %v: %d released responses had no tracked request", lead, nw.Stats.UnknownSeq)
		}
		if fleet.TotalAcked() != 18 || fleet.DupAcks != 0 {
			t.Fatalf("lead %v: acked %d (dup %d), want 18", lead, fleet.TotalAcked(), fleet.DupAcks)
		}
	}
	if straddled == 0 {
		t.Fatal("no start instant made the first operation straddle a checkpoint; test premise broken")
	}
}

// TestUngatedFasterThanGated compares mean client latency: the gate defers
// responses to the next commit, so gated latency must exceed ungated.
func TestUngatedFasterThanGated(t *testing.T) {
	mean := func(gated bool) simclock.Duration {
		_, _, _, fleet := testMachine(t, gated, simclock.Millisecond)
		if err := fleet.Run(); err != nil {
			t.Fatal(err)
		}
		var sum simclock.Duration
		for _, d := range fleet.Latencies {
			sum += d
		}
		return sum / simclock.Duration(len(fleet.Latencies))
	}
	g, u := mean(true), mean(false)
	if g <= u {
		t.Errorf("gated mean latency %v <= ungated %v: the gate is not deferring responses", g, u)
	}
}

// TestRestoreDropsDeviceState crashes with frames queued and responses
// buffered, and checks OnMachineRestore discards both.
func TestRestoreDropsDeviceState(t *testing.T) {
	m, nw, _, fleet := testMachine(t, true, simclock.Millisecond)
	// Fill the pipeline but stop before any checkpoint releases.
	for i := 0; i < 12; i++ {
		if _, err := fleet.Step(); err != nil {
			t.Fatal(err)
		}
		if nw.InFlight() > 0 && nw.QueuedRequests() > 0 {
			break
		}
	}
	if nw.InFlight() == 0 && nw.QueuedRequests() == 0 {
		t.Fatal("pipeline never filled; test premise broken")
	}
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	fleet.ResyncAfterRestore()
	if nw.QueuedRequests() != 0 || nw.InFlight() != 0 {
		t.Errorf("device state survived the power failure: queued=%d inflight=%d",
			nw.QueuedRequests(), nw.InFlight())
	}
	if nw.Stats.DroppedRequests+nw.Stats.DroppedResponses == 0 {
		t.Error("nothing recorded as dropped")
	}
	bad, err := fleet.CheckJustified()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Errorf("unjustified acks right after restore: %v", bad)
	}
	// The fleet must be able to finish after resync.
	if err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	if fleet.TotalAcked() != 18 {
		t.Errorf("acked %d after recovery, want 18", fleet.TotalAcked())
	}
	if fleet.Retransmits == 0 {
		t.Error("recovery finished without retransmits despite dropped frames")
	}
}

// TestUnknownSeqCounted sends a ring message that bypasses TrackResponse
// and checks it is counted, not misdelivered.
func TestUnknownSeqCounted(t *testing.T) {
	m, nw, _, fleet := testMachine(t, true, simclock.Millisecond)
	if _, err := nw.Driver.Send(&m.Cores[0].Lane, []byte("stray")); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()
	if nw.Stats.UnknownSeq != 1 {
		t.Errorf("unknown-seq count %d, want 1", nw.Stats.UnknownSeq)
	}
	if fleet.TotalAcked() != 0 {
		t.Errorf("stray message produced %d acks", fleet.TotalAcked())
	}
}

// TestManualCheckpointFallback runs a gated fleet on a machine without
// periodic checkpoints: the blocked branch must force commits itself.
func TestManualCheckpointFallback(t *testing.T) {
	m, _, _, fleet := testMachine(t, true, 0)
	if err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	if fleet.TotalAcked() != 18 {
		t.Errorf("acked %d, want 18", fleet.TotalAcked())
	}
	if m.Stats.Checkpoints < 2 {
		t.Errorf("blocked fleet never forced a checkpoint (%d taken)", m.Stats.Checkpoints)
	}
}

func TestRunRequiresBoundedRequests(t *testing.T) {
	_, nw, srv, _ := testMachine(t, false, 0)
	fleet, err := NewFleet(nw, srv, FleetConfig{Clients: 1, Requests: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(); err == nil {
		t.Fatal("Run accepted an unbounded fleet")
	}
}

func TestCounterValue(t *testing.T) {
	if got := CounterValue([]byte{0, 0, 0, 0, 0, 0, 1, 2}); got != 258 {
		t.Errorf("CounterValue = %d, want 258", got)
	}
	if got := CounterValue([]byte{1, 2}); got != 0 {
		t.Errorf("short value: CounterValue = %d, want 0", got)
	}
}

// TestValueReusesBuffer holds a warm Value to zero allocations, and checks
// that the bytes it returns stay put until the next call.
func TestValueReusesBuffer(t *testing.T) {
	c := NewClients([][]byte{[]byte("a"), []byte("b")}, 1, 0, 1, 64, 0)
	v := c.Value(1, 7)
	want := append([]byte(nil), v...)
	if got := CounterValue(v); got != 7 || len(v) != 64 {
		t.Fatalf("Value(1, 7) = %d bytes with counter %d, want 64 bytes with counter 7", len(v), got)
	}
	c.Send(0)
	c.Send(1)
	if string(v) != string(want) {
		t.Fatalf("Value's bytes changed before the next call")
	}
	if n := testing.AllocsPerRun(100, func() { c.Value(0, 9) }); n != 0 {
		t.Fatalf("a warm Value allocates %v times, want 0", n)
	}
}
