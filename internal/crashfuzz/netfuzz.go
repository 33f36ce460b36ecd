package crashfuzz

import (
	"fmt"
	"math/rand"

	"treesls/internal/apps/kvstore"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/simclock"
)

// NetConfig parameterizes a network-in-flight crash campaign: a client
// fleet runs against a gated kvstore server through the simulated network
// while power failures are armed at randomized NVM persistence events. The
// armed countdown lands crashes on every boundary of the response path —
// mid-request (the SET's stores), response-buffered (the extsync ring
// append), and mid-release (between a checkpoint's commit and the ring's
// visible/reader pointer updates) — and after every restore the oracle is
// the external-synchrony invariant itself: no client may hold an
// acknowledgement the restored state cannot justify.
type NetConfig struct {
	// Mode is the persistence model to run under.
	Mode mem.PersistMode
	// Seeds are the machine/damage seeds; each seed gets its own machine.
	Seeds []uint64
	// CrashesPerSeed is how many crash injections to attempt per seed.
	CrashesPerSeed int
	// EventWindow bounds the armed countdown.
	EventWindow int
	// StepsPerCrash bounds the fleet micro-steps run while waiting for an
	// armed crash to fire (default 600: a fleet micro-step is much finer
	// than a workload op — one packet hop or one server poll — so the
	// window needs more of them for the countdown to elapse;
	// TestNetCrashCampaign's boundary-coverage counters depend on
	// countdowns firing inside the response path rather than expiring).
	StepsPerCrash int
	// Clients is the fleet size (default 3).
	Clients int
}

// The net domain's fixed fleet and checkpoint shape.
const (
	// netWindow is each client's pipeline depth.
	netWindow = 2
	// netInterval is the periodic checkpoint interval: short intervals put
	// many release boundaries inside the crash window.
	netInterval = 200 * simclock.Microsecond
	// netProgressSteps is how many un-armed micro-steps run after each
	// restore so the fleet reaches checkpoints and the gate releases
	// responses between injections — later crashes then land after
	// releases, not only before the first one.
	netProgressSteps = 150
)

func (c *NetConfig) fill() {
	if c.CrashesPerSeed == 0 {
		c.CrashesPerSeed = faultplane.Defaults.RoundsPerSeed
	}
	if c.EventWindow == 0 {
		c.EventWindow = faultplane.Defaults.EventWindow
	}
	if c.StepsPerCrash == 0 {
		c.StepsPerCrash = 600
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
}

// NetResult aggregates a network crash campaign across all seeds. A
// returned result always reflects zero invariant violations — the first
// violation aborts the campaign with an error.
type NetResult struct {
	// CrashesFired / Restores count injected power failures and the
	// successful restores that followed.
	CrashesFired int
	Restores     int
	// Acked is the total client-acknowledged requests across seeds.
	Acked uint64
	// Retransmits counts requests clients re-sent after a crash dropped
	// their frame or un-released response (mid-request boundary hits).
	Retransmits uint64
	// DroppedRequests / DroppedResponses count crash-destroyed frames and
	// buffered-but-unreleased responses (response-buffered boundary hits).
	DroppedRequests  uint64
	DroppedResponses uint64
	// Released counts responses that went through the gate.
	Released uint64
	// Checkpoints and AuditChecks across all seeds.
	Checkpoints uint64
	AuditChecks uint64
}

// netFuzzer is the per-seed world: one gated machine plus its fleet.
type netFuzzer struct {
	faultplane.Hooks
	cfg   NetConfig
	rng   *rand.Rand
	res   *NetResult
	m     *kernel.Machine
	nw    *net.Network
	fleet *net.Fleet

	// lastFired gates PostRound: the legacy silo only ran progress steps
	// after a fired crash, and the steps advance machine state that the
	// next countdown's landing spot depends on.
	lastFired bool
}

// netDomain is the network campaign as a fault-plane domain.
func netDomain(cfg NetConfig, res *NetResult) faultplane.Domain {
	return faultplane.NewDomain("net", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newNetFuzzer(cfg, seed, rng, res)
	})
}

// RunNet executes the campaign. The oracle after every restore: the fleet's
// acknowledged prefixes are justified by the restored per-connection
// counters, client-observed FIFO order never broke, and the state-digest
// auditor stayed clean.
func RunNet(cfg NetConfig) (NetResult, error) {
	cfg.fill()
	var res NetResult
	st, err := faultplane.RunCampaign(
		faultplane.Spec{Seeds: cfg.Seeds, RoundsPerSeed: cfg.CrashesPerSeed},
		netDomain(cfg, &res))
	res.CrashesFired = st.Injections
	res.Restores = st.Recoveries
	return res, err
}

// Finish folds the seed's traffic counters into the campaign result.
func (f *netFuzzer) Finish() error {
	res := f.res
	res.Acked += f.fleet.TotalAcked()
	res.Retransmits += f.fleet.Retransmits
	res.DroppedRequests += f.nw.Stats.DroppedRequests
	res.DroppedResponses += f.nw.Stats.DroppedResponses
	res.Released += f.nw.Driver.Stats.Delivered
	res.Checkpoints += f.m.Ckpt.Stats.Checkpoints
	if f.m.Auditor != nil {
		res.AuditChecks += f.m.Auditor.Checks
	}
	return f.m.Alloc.CheckInvariants()
}

func newNetFuzzer(cfg NetConfig, seed uint64, rng *rand.Rand, res *NetResult) (*netFuzzer, error) {
	mcfg := kernel.DefaultConfig()
	mcfg.Cores = 4
	mcfg.CheckpointEvery = netInterval
	mcfg.Seed = seed
	mcfg.Mem.Persist = cfg.Mode
	mcfg.Mem.CrashSeed = seed
	mcfg.Audit = true
	m := kernel.New(mcfg)

	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 512})
	if err != nil {
		return nil, err
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name:      "redis",
		Threads:   4,
		HeapPages: 256,
		Buckets:   64,
		Ext:       nw.Driver,
		EchoValue: true,
	})
	if err != nil {
		return nil, err
	}
	fleet, err := net.NewFleet(nw, srv, net.FleetConfig{
		Clients:    cfg.Clients,
		Requests:   0, // unbounded: the campaign, not the fleet, decides when to stop
		Window:     netWindow,
		ValueBytes: 32,
	})
	if err != nil {
		return nil, err
	}
	m.TakeCheckpoint() // base state: a crash at any event has somewhere to restore to
	f := &netFuzzer{cfg: cfg, rng: rng, res: res, m: m, nw: nw, fleet: fleet}
	f.registerOracles()
	return f, checkAudit(m)
}

// registerOracles wires the external-synchrony invariant set in the legacy
// check order: audit, then the justification of every acknowledged prefix,
// then client-observed FIFO, then duplicate acknowledgements.
func (f *netFuzzer) registerOracles() {
	r := f.Oracles()
	r.Register("audit", func() error { return checkAudit(f.m) })
	r.Register("extsync-justified", func() error { return checkJustified(f.fleet.CheckJustified()) })
	r.Register("client-fifo", func() error { return checkFIFO(f.fleet.Violations) })
	r.Register("dup-acks", func() error { return checkDupAcks(f.fleet.DupAcks) })
}

// Now reports simulated time for engine trace instants.
func (f *netFuzzer) Now() simclock.Time { return f.m.Now() }

// Round injects one power failure at a random persistence-event
// countdown; the engine runs the oracle registry next.
func (f *netFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	var err error
	f.lastFired, err = f.inject(uint64(1+f.rng.Intn(f.cfg.EventWindow)), f.cfg.StepsPerCrash)
	return f.lastFired, err
}

// inject arms a power failure k persistence events ahead and drives up to
// n fleet micro-steps until it fires. The micro-step scheduler means the
// failure lands wherever the traffic put persistence events: inside a
// SET's stores, the ring append, a checkpoint walk, or the post-commit
// release. A fired failure is followed by the restore and the fleet's
// resync.
func (f *netFuzzer) inject(k uint64, n int) (bool, error) {
	fired, err := armed(f.m, k, n, func() error {
		_, err := f.fleet.Step()
		return err
	})
	if err != nil || !fired {
		return false, err
	}
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	f.m.Crash()
	if err := f.m.Restore(); err != nil {
		return true, fmt.Errorf("restore: %w", err)
	}
	f.fleet.ResyncAfterRestore()
	return true, nil
}

// PostRound runs un-armed progress: the fleet reaches checkpoints so the
// gate releases acknowledgements before the next injection.
func (f *netFuzzer) PostRound(rng *rand.Rand) error {
	if !f.lastFired {
		return nil
	}
	for step := 0; step < netProgressSteps; step++ {
		if _, err := f.fleet.Step(); err != nil {
			return err
		}
	}
	return nil
}

// NetOneShot runs a single parameterized network crash injection — the
// entry point of FuzzNetCrashEvent. Boot a gated machine+fleet with the
// given seed, arm a power failure eventK persistence events ahead, drive up
// to steps fleet micro-steps, and if the failure fired, crash, restore, and
// apply the external-synchrony oracle. A run where the countdown never
// fires is a valid (uninteresting) input, not an error.
func NetOneShot(mode mem.PersistMode, seed, eventK uint64, steps uint16) error {
	cfg := NetConfig{Mode: mode, Clients: 2, StepsPerCrash: 200}
	cfg.fill()
	f, err := newNetFuzzer(cfg, seed, faultplane.Stream(seed, ""), &NetResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	fired, err := f.inject(eventK%uint64(cfg.EventWindow)+1, int(steps)%cfg.StepsPerCrash+1)
	return checkOneShot(f, fired, err)
}
