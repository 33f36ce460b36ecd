package repl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treesls/internal/apps/kvstore"
	"treesls/internal/checkpoint"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// variant is one cell of the {persistence}×{copy method} matrix.
type variant struct {
	name   string
	mode   mem.PersistMode
	method checkpoint.CopyMethod
	hybrid bool
}

func matrix() []variant {
	var out []variant
	for _, pm := range []struct {
		name string
		mode mem.PersistMode
	}{{"eadr", mem.ModeEADR}, {"adr", mem.ModeADR}} {
		out = append(out,
			variant{pm.name + "/cow", pm.mode, checkpoint.MethodCOW, false},
			variant{pm.name + "/stopcopy", pm.mode, checkpoint.MethodStopAndCopy, false},
			variant{pm.name + "/hybrid", pm.mode, checkpoint.MethodCOW, true},
		)
	}
	return out
}

// world is a primary machine with a kvstore and an attached replicator.
type world struct {
	m   *kernel.Machine
	srv *kvstore.Server
	rep *Replicator
}

func newWorld(t testing.TB, v variant, rcfg Config) *world {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = 0 // rounds are driven explicitly
	cfg.Seed = 7
	cfg.Mem.Persist = v.mode
	cfg.Checkpoint.Method = v.method
	cfg.Checkpoint.HybridCopy = v.hybrid
	cfg.Audit = true
	m := kernel.New(cfg)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 2, HeapPages: 64, Buckets: 32,
	})
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	rep := Attach(m, nil, rcfg)
	return &world{m: m, srv: srv, rep: rep}
}

// round mutates a seeded slice of keys and commits a checkpoint.
func (w *world) round(t testing.TB, rng *rand.Rand, writes int) {
	t.Helper()
	for i := 0; i < writes; i++ {
		k := rng.Intn(64)
		val := fmt.Sprintf("v%d-%d", k, rng.Intn(1000))
		if _, _, err := w.srv.Set(i%2, []byte(fmt.Sprintf("key%02d", k)), []byte(val)); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	w.m.TakeCheckpoint()
}

// capture serializes m's whole backup tree: the replicator's in-place
// capture run against an empty image.
func capture(m *kernel.Machine) *checkpoint.ReplImage {
	img := &checkpoint.ReplImage{}
	m.Ckpt.CaptureReplDelta(img, true)
	return img
}

// settleAcks idles the primary past the newest standby ack, so a failover
// at Now() promotes the latest committed round.
func (w *world) settleAcks() {
	if at := w.rep.LastAckAt(); at > w.m.Now() {
		w.m.SettleTo(at)
	}
}

// TestDeterministicFailover is the headline acceptance test: across
// {eADR,ADR}×{COW,stop-and-copy,hybrid}, promoting the standby yields
// exactly the primary's last acknowledged digest, and the whole scenario is
// bit-identical across reruns.
func TestDeterministicFailover(t *testing.T) {
	for _, v := range matrix() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			type outcome struct {
				version uint64
				digest  uint64
				bytes   uint64
				folded  int
			}
			run := func() outcome {
				w := newWorld(t, v, Config{FullSyncEvery: 4})
				rng := rand.New(rand.NewSource(42))
				for r := 0; r < 10; r++ {
					w.round(t, rng, 12)
				}
				w.settleAcks()
				fo, err := w.rep.FailoverAt(w.m.Now())
				if err != nil {
					t.Fatalf("failover: %v", err)
				}
				if fo.Digest != fo.ExpectedDigest {
					t.Fatalf("standby digest %#x != acknowledged digest %#x (v%d)",
						fo.Digest, fo.ExpectedDigest, fo.Version)
				}
				if fo.Version != w.rep.AckedVersion(w.m.Now()) || fo.Version == 0 {
					t.Fatalf("promoted version %d, acked %d", fo.Version, w.rep.AckedVersion(w.m.Now()))
				}
				// Byte-level oracle, stronger than the digest: the
				// standby's own replication capture must reproduce the
				// primary's entry-for-entry (including swap content,
				// which the digest only marks).
				pi := capture(w.m)
				si := capture(fo.Machine)
				if !reflect.DeepEqual(pi.Entries, si.Entries) {
					t.Fatalf("standby capture differs from primary capture (%d vs %d entries)",
						len(pi.Entries), len(si.Entries))
				}
				// The promoted machine is a working machine: its process
				// table rebuilt from the replicated tree.
				if fo.Machine.Process("kv") == nil {
					t.Fatalf("promoted standby lost the kv process")
				}
				return outcome{fo.Version, fo.Digest, w.rep.Stats.BytesSent, fo.FoldedDeltas}
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("rerun diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// TestFailoverBeforeAck targets the delta-applied-unacked boundary: a
// failover instant after a round was sent but before its ack arrived must
// promote the previous acknowledged round, with its digest.
func TestFailoverBeforeAck(t *testing.T) {
	w := newWorld(t, variant{"", mem.ModeADR, checkpoint.MethodCOW, true}, Config{FullSyncEvery: 4})
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 5; r++ {
		w.round(t, rng, 8)
	}
	led := w.rep.Ledger()
	last := led[len(led)-1]
	prev := led[len(led)-2]
	if prev.AckArrive >= last.AckArrive || last.Depart >= last.AckArrive {
		t.Fatalf("ledger times not increasing: %+v then %+v", prev, last)
	}
	// An instant inside [depart, ack) of the last round: the last round is
	// not yet acknowledged, so it must not be promoted.
	tt := last.Depart
	if prev.AckArrive > tt {
		tt = prev.AckArrive
	}
	fo, err := w.rep.FailoverAt(tt)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if fo.Version != prev.Version {
		t.Fatalf("promoted v%d, want the acknowledged v%d", fo.Version, prev.Version)
	}
	if fo.Digest != prev.Digest {
		t.Fatalf("digest %#x != v%d's ledger digest %#x", fo.Digest, prev.Version, prev.Digest)
	}
}

// TestReplDeltaProperty is the satellite property test: at every round, the
// full-sync image plus the incremental deltas since, folded in order,
// reproduces the primary's current capture byte-for-byte — and a final
// failover turns that into the audit digest equality.
func TestReplDeltaProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			v := variant{"", mem.ModeADR, checkpoint.MethodCOW, true}
			if seed%2 == 0 {
				v.mode = mem.ModeEADR
				v.method = checkpoint.MethodStopAndCopy
			}
			w := newWorld(t, v, Config{FullSyncEvery: 3})
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < 9; r++ {
				w.round(t, rng, 4+rng.Intn(12))
				led := w.rep.Ledger()
				base := -1
				for i := range led {
					if led[i].Full {
						base = i
					}
				}
				if base < 0 {
					t.Fatalf("round %d: no full sync in ledger", r)
				}
				var img *checkpoint.ReplImage
				for i := base; i < len(led); i++ {
					img = checkpoint.FoldDelta(img, led[i].Delta)
				}
				cur := capture(w.m)
				if img.Version != cur.Version || img.RootID != cur.RootID || img.NextID != cur.NextID {
					t.Fatalf("round %d: folded header (v%d root %d next %d) != capture (v%d root %d next %d)",
						r, img.Version, img.RootID, img.NextID, cur.Version, cur.RootID, cur.NextID)
				}
				if !reflect.DeepEqual(img.Entries, cur.Entries) {
					t.Fatalf("round %d: folded image differs from capture (%d vs %d entries)",
						r, len(img.Entries), len(cur.Entries))
				}
			}
			w.settleAcks()
			fo, err := w.rep.FailoverAt(w.m.Now())
			if err != nil {
				t.Fatalf("failover: %v", err)
			}
			if fo.Digest != fo.ExpectedDigest {
				t.Fatalf("digest %#x != acknowledged %#x", fo.Digest, fo.ExpectedDigest)
			}
		})
	}
}

// TestFailoverWithSwappedPages proves swapped-out page content rides the
// delta stream: the audit digest only marks swapped pages, so this test
// also compares slot bytes on both sides.
func TestFailoverWithSwappedPages(t *testing.T) {
	w := newWorld(t, variant{"", mem.ModeADR, checkpoint.MethodCOW, false}, Config{})
	rng := rand.New(rand.NewSource(11))
	w.round(t, rng, 20)
	w.round(t, rng, 5)
	n, err := w.m.EvictColdPages(8)
	if err != nil {
		t.Fatalf("evict: %v", err)
	}
	if n == 0 {
		t.Fatalf("no cold pages evicted; the swap path is untested")
	}
	w.round(t, rng, 3)
	w.settleAcks()
	cur := capture(w.m)
	swaps := 0
	for k, data := range cur.Entries {
		if k.Kind == checkpoint.ReplSwap {
			swaps++
			if len(data) != mem.PageSize {
				t.Fatalf("swap entry %v has %d bytes", k, len(data))
			}
		}
	}
	if swaps == 0 {
		t.Fatalf("capture carries no swap entries despite %d evictions", n)
	}
	fo, err := w.rep.FailoverAt(w.m.Now())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if fo.Digest != fo.ExpectedDigest {
		t.Fatalf("digest %#x != acknowledged %#x", fo.Digest, fo.ExpectedDigest)
	}
	si := capture(fo.Machine)
	if !reflect.DeepEqual(cur.Entries, si.Entries) {
		t.Fatalf("standby swap/page content differs from primary")
	}
}

// deliveries records extsync wire deliveries for the release oracle.
type deliveries struct {
	at []simclock.Time
}

func (d *deliveries) hook(_ uint64, _ []byte, at simclock.Time) { d.at = append(d.at, at) }

// ringWorld builds a primary whose gated responses flow through a raw
// extsync driver (no client network needed for the release oracle).
func ringWorld(t *testing.T, mode Mode) (*world, *extsync.Driver, *deliveries) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = 0
	cfg.Seed = 5
	cfg.Mem.Persist = mem.ModeADR
	cfg.Audit = true
	m := kernel.New(cfg)
	drv, err := extsync.NewDriver(m, 64)
	if err != nil {
		t.Fatalf("extsync: %v", err)
	}
	del := &deliveries{}
	drv.SetDeliver(del.hook)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 2, HeapPages: 64, Buckets: 32,
	})
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	rep := Attach(m, drv, Config{Mode: mode})
	return &world{m: m, srv: srv, rep: rep}, drv, del
}

// runRing appends gated responses and commits rounds, settling past each
// ack so the remote-mode pump gets a chance to release.
func runRing(t *testing.T, w *world, drv *extsync.Driver, rounds int) {
	t.Helper()
	lane := &w.m.Cores[0].Lane
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			if _, err := drv.Send(lane, []byte(fmt.Sprintf("resp-%d-%d", r, i))); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		w.round(t, rng, 6)
		// Idle forward far enough for the ack to land and the pump to run.
		w.m.SettleTo(w.m.Now().Add(100 * simclock.Microsecond))
	}
}

// TestRemoteModeOracle: in repl-mode=remote, no gated response reaches the
// wire before its covering commit is standby-acknowledged.
func TestRemoteModeOracle(t *testing.T) {
	w, drv, del := ringWorld(t, ModeRemote)
	runRing(t, w, drv, 6)
	if len(w.rep.Released) == 0 || len(del.at) == 0 {
		t.Fatalf("nothing released (%d release records, %d deliveries)", len(w.rep.Released), len(del.at))
	}
	for _, rr := range w.rep.Released {
		if rr.At < rr.AckArrive {
			t.Fatalf("release of v%d at %d before its ack at %d", rr.Version, rr.At, rr.AckArrive)
		}
	}
	// Every wire delivery must sit at or after the ack of some released
	// version — with FIFO release, at or after the first ack.
	firstAck := w.rep.Released[0].AckArrive
	for i, at := range del.at {
		if at < firstAck {
			t.Fatalf("delivery %d at %d precedes the first standby ack at %d", i, at, firstAck)
		}
	}
	if drv.Stats.Delivered != uint64(len(del.at)) {
		t.Fatalf("driver delivered %d, hook saw %d", drv.Stats.Delivered, len(del.at))
	}
}

// TestLocalModeReleasesBeforeAck is the conviction test: with repl-mode=local
// the gate provably releases before the standby ack, so the remote-mode
// oracle above has teeth.
func TestLocalModeReleasesBeforeAck(t *testing.T) {
	w, drv, del := ringWorld(t, ModeLocal)
	runRing(t, w, drv, 6)
	if len(del.at) == 0 {
		t.Fatalf("nothing delivered")
	}
	if len(w.rep.Released) != 0 {
		t.Fatalf("local mode must not use the deferred-release pump")
	}
	led := w.rep.Ledger()
	early := false
	for _, at := range del.at {
		for _, e := range led {
			// A delivery strictly before the ack of the round committed
			// at-or-after it demonstrates the weaker contract.
			if at <= e.Depart && at < e.AckArrive {
				early = true
			}
		}
	}
	if !early {
		t.Fatalf("no delivery preceded a standby ack; conviction test is vacuous")
	}
}

// TestRemoteModeGatedFleet wires the full stack — client fleet, gated
// network, deferred extsync, replicator — and checks both the fleet's own
// justification oracle and the deferred-release ordering end to end.
func TestRemoteModeGatedFleet(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = 200 * simclock.Microsecond
	cfg.Seed = 13
	cfg.Mem.Persist = mem.ModeADR
	cfg.Audit = true
	m := kernel.New(cfg)
	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 512})
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "redis", Threads: 4, HeapPages: 256, Buckets: 64,
		Ext: nw.Driver, EchoValue: true,
	})
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	rep := Attach(m, nw.Driver, Config{Mode: ModeRemote})
	fleet, err := net.NewFleet(nw, srv, net.FleetConfig{
		Clients: 3, Requests: 30, Window: 2, ValueBytes: 32,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	m.TakeCheckpoint()
	if err := fleet.Run(); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if got := fleet.TotalAcked(); got != 90 {
		t.Fatalf("acked %d of 90 requests", got)
	}
	if errs, err := fleet.CheckJustified(); err != nil || len(errs) != 0 {
		t.Fatalf("justification: %v %v", errs, err)
	}
	if len(rep.Released) == 0 {
		t.Fatalf("remote mode completed without deferred releases")
	}
	for _, rr := range rep.Released {
		if rr.At < rr.AckArrive {
			t.Fatalf("release of v%d at %d before ack at %d", rr.Version, rr.At, rr.AckArrive)
		}
	}
	if rep.Stats.Deltas == 0 || rep.Stats.FullSyncs == 0 {
		t.Fatalf("no replication traffic: %+v", rep.Stats)
	}
	// And the standby is still promotable at the end of it all.
	if at := rep.LastAckAt(); at > m.Now() {
		m.SettleTo(at)
	}
	fo, err := rep.FailoverAt(m.Now())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if fo.Digest != fo.ExpectedDigest {
		t.Fatalf("digest %#x != acknowledged %#x", fo.Digest, fo.ExpectedDigest)
	}
}

// TestPrimaryRestoreForcesFullSync: after the primary itself crash-restores,
// the next round must be a full sync (the standby may be ahead).
func TestPrimaryRestoreForcesFullSync(t *testing.T) {
	w := newWorld(t, variant{"", mem.ModeADR, checkpoint.MethodCOW, true}, Config{FullSyncEvery: 100})
	rng := rand.New(rand.NewSource(17))
	for r := 0; r < 3; r++ {
		w.round(t, rng, 8)
	}
	led := w.rep.Ledger()
	if led[len(led)-1].Full {
		t.Fatalf("precondition: last round should be incremental")
	}
	w.m.Crash()
	if err := w.m.Restore(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	w.round(t, rng, 4)
	led = w.rep.Ledger()
	if !led[len(led)-1].Full {
		t.Fatalf("round after a primary restore was not a full sync")
	}
	w.settleAcks()
	fo, err := w.rep.FailoverAt(w.m.Now())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if fo.Digest != fo.ExpectedDigest {
		t.Fatalf("digest %#x != acknowledged %#x", fo.Digest, fo.ExpectedDigest)
	}
}

// TestLedgerGC: full syncs bound the retained log; failover still works
// from the retained tail.
func TestLedgerGC(t *testing.T) {
	w := newWorld(t, variant{"", mem.ModeEADR, checkpoint.MethodCOW, true}, Config{FullSyncEvery: 3})
	rng := rand.New(rand.NewSource(23))
	for r := 0; r < 12; r++ {
		w.round(t, rng, 6)
	}
	if w.rep.Stats.GCedDeltas == 0 {
		t.Fatalf("12 rounds with FullSyncEvery=3 GC'd nothing")
	}
	led := w.rep.Ledger()
	if len(led) >= 12 {
		t.Fatalf("ledger retained all %d rounds", len(led))
	}
	w.settleAcks()
	fo, err := w.rep.FailoverAt(w.m.Now())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if fo.Digest != fo.ExpectedDigest {
		t.Fatalf("digest %#x != acknowledged %#x", fo.Digest, fo.ExpectedDigest)
	}
}

func TestFailoverErrors(t *testing.T) {
	w := newWorld(t, variant{"", mem.ModeEADR, checkpoint.MethodCOW, false}, Config{})
	if _, err := w.rep.FailoverAt(w.m.Now()); err == nil {
		t.Fatalf("failover with no acknowledged checkpoint must fail")
	}
	rng := rand.New(rand.NewSource(29))
	w.round(t, rng, 4)
	if v := w.rep.AckedVersion(0); v != 0 {
		t.Fatalf("acked version at t=0 is %d, want 0", v)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"local": ModeLocal, "remote": ModeRemote} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Mode(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatalf("ParseMode(bogus) must fail")
	}
}

// TestObservedReplication runs the full remote-mode ring path with the
// trace and metrics instruments attached, then checks the replication
// metrics the observer recorded and the accessors the CLIs consume.
func TestObservedReplication(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = 0
	cfg.Seed = 5
	cfg.Mem.Persist = mem.ModeADR
	cfg.Obs = obs.New()
	cfg.Audit = true
	m := kernel.New(cfg)
	drv, err := extsync.NewDriver(m, 64)
	if err != nil {
		t.Fatalf("extsync: %v", err)
	}
	del := &deliveries{}
	drv.SetDeliver(del.hook)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 2, HeapPages: 64, Buckets: 32,
	})
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	rep := Attach(m, drv, Config{Mode: ModeRemote, FullSyncEvery: 2})
	if rep.Link() == nil {
		t.Fatalf("Link() is nil")
	}
	if rep.LastAckAt() != 0 {
		t.Fatalf("LastAckAt before any round = %v", rep.LastAckAt())
	}
	w := &world{m: m, srv: srv, rep: rep}
	runRing(t, w, drv, 4)

	reg := cfg.Obs.Metrics
	if got := reg.Counter("repl.deltas").Value(); got != rep.Stats.Deltas {
		t.Errorf("repl.deltas metric %d, stats %d", got, rep.Stats.Deltas)
	}
	if got := reg.Counter("repl.bytes_sent").Value(); got != rep.Stats.BytesSent {
		t.Errorf("repl.bytes_sent metric %d, stats %d", got, rep.Stats.BytesSent)
	}
	if got := reg.Counter("repl.full_syncs").Value(); got != rep.Stats.FullSyncs {
		t.Errorf("repl.full_syncs metric %d, stats %d", got, rep.Stats.FullSyncs)
	}
	if got := reg.Counter("repl.acks").Value(); got != rep.Stats.Acks {
		t.Errorf("repl.acks metric %d, stats %d", got, rep.Stats.Acks)
	}
	if n := reg.Histogram("repl.lag_ns", nil).Count(); n != rep.Stats.Acks {
		t.Errorf("repl.lag_ns has %d samples, want one per ack (%d)", n, rep.Stats.Acks)
	}
	if reg.Histogram("repl.lag_ns", nil).Sum() <= 0 {
		t.Errorf("replication lag sum not positive")
	}
	if len(rep.Released) == 0 {
		t.Fatalf("remote mode released nothing")
	}

	// A degraded restore that rolls the primary below replicated rounds must
	// truncate the ledger and pull the release watermark back with it.
	lane := &m.Cores[0].Lane
	rep.OnRestore(1, lane)
	for _, e := range rep.Ledger() {
		if e.Version > 1 {
			t.Errorf("ledger retains v%d after a restore to v1", e.Version)
		}
	}
	if rep.releasedTo > 1 {
		t.Errorf("releasedTo %d after a restore to v1", rep.releasedTo)
	}
}
