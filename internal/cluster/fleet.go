package cluster

// The multi-shard client fleet: closed-loop clients whose keys spread over
// the whole keyspace, routed to their owning shards through the ring. The
// client side — window pipelining, the counter-value oracle, the
// FIFO/justification checks — is net.Clients, the same model the
// single-machine fleet embeds. This file adds only routing: every request
// and response pays the router encapsulation (net.RouteHeaderBytes),
// receipts arrive per shard, frames queued at a previous owner are
// forwarded, and a resync after a failure rewinds only the keys the
// recovered shard owns.

import (
	"fmt"

	"treesls/internal/net"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// FleetConfig sizes the cluster client fleet.
type FleetConfig struct {
	// Clients is the number of concurrent client processes (default 4).
	Clients int
	// KeysPerClient is how many distinct keys each client owns (default
	// 4). Keys are drawn from the seeded cluster keyspace, so each client
	// usually touches several shards.
	KeysPerClient int
	// Requests is the per-key request budget; 0 means unbounded (a
	// harness drives Step itself).
	Requests int
	// Window is the per-client pipeline depth across its keys (default 4).
	Window int
	// ValueBytes is the SET value size (>= 8; default 64).
	ValueBytes int
	// Seed seeds the keyspace draw (key→shard spread).
	Seed int64
	// Think is the client pause between an acknowledgement and the next
	// send it unblocks on that key.
	Think simclock.Duration
}

// StepStatus reports what one fleet micro-step did.
type StepStatus int

const (
	// StepProgress: a frame was dispatched or a request sent.
	StepProgress StepStatus = iota
	// StepBlocked: every client is window-blocked behind gated responses
	// parked in shard rings — the harness must run a cluster round (the
	// cut is the only thing that releases them).
	StepBlocked
	// StepDone: every key reached its request budget.
	StepDone
)

// Fleet drives the cluster's client load. Key j (its global index, which
// doubles as the wire conn id) is one request counter stream of
// net.Clients. All scheduling is deterministic: Step executes exactly one
// micro-step chosen by simulated-time priority across all shards.
type Fleet struct {
	net.Clients
	c   *Cluster
	cfg FleetConfig

	// shard[j] is key j's ring owner: the fleet's routing view, rerouted
	// on every ring flip.
	shard []int
	// sentShard[j] is where key j's newest in-flight request was
	// physically sent (its NIC queue). It lags shard across a ring flip:
	// frames queued at the previous owner are forwarded at dispatch, but
	// if that owner dies first they die with it — ResyncShard matches
	// either slice so those keys rewind too.
	sentShard []int

	srvThreads int
	// migTurn alternates Advance between migration and fleet steps while
	// an epoch is open.
	migTurn bool

	// OnSend, when set, observes every request put on the wire (including
	// retransmits) — the linearizability recorder's invocation feed.
	OnSend func(conn int, req uint64, at simclock.Time)
}

// NewFleet builds the fleet: Clients*KeysPerClient seeded keys, each routed
// to its ring owner, with every shard's receipt hook wired back here.
func NewFleet(c *Cluster, cfg FleetConfig) (*Fleet, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.KeysPerClient <= 0 {
		cfg.KeysPerClient = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.ValueBytes < 8 {
		cfg.ValueBytes = 64
	}
	if c.cfg.Gated && cfg.ValueBytes > 200 {
		return nil, fmt.Errorf("cluster: ValueBytes %d too large for a gated response slot", cfg.ValueBytes)
	}
	keys := workload.ClusterKeys(cfg.Seed, cfg.Clients*cfg.KeysPerClient)
	f := &Fleet{
		Clients:    net.NewClients(keys, cfg.KeysPerClient, cfg.Requests, cfg.Window, cfg.ValueBytes, cfg.Think),
		c:          c,
		cfg:        cfg,
		shard:      make([]int, len(keys)),
		sentShard:  make([]int, len(keys)),
		srvThreads: c.cfg.Cores,
	}
	for j, key := range keys {
		f.shard[j] = c.Ring.Owner(key)
		f.sentShard[j] = f.shard[j]
	}
	f.attachReceipts()
	f.pinThreads()
	c.SetOnRingChange(f.Reroute)
	return f, nil
}

// attachReceipts wires every shard network's delivery hook back to the
// fleet (idempotent; re-run when a joining shard appears).
func (f *Fleet) attachReceipts() {
	for i := range f.c.Shards {
		shard := i
		f.c.Shards[i].Net.SetOnReceipt(func(r net.Receipt) { f.receipt(shard, r) })
	}
}

// Reroute re-derives every key's owning shard from the live ring — the
// cluster fires it whenever the ring changes (a migration commit, in the
// clean path or a recovery roll-forward). Frames already queued at a
// previous owner are not lost: its dispatcher forwards them to the new
// owner over the migration mesh.
func (f *Fleet) Reroute() {
	for j := range f.shard {
		f.shard[j] = f.c.Ring.Owner(f.Key(j))
	}
	f.attachReceipts()
	f.pinThreads()
}

// pinThreads pins every shard server's worker threads round-robin to cores
// (idempotent; re-applied after restore).
func (f *Fleet) pinThreads() {
	for _, s := range f.c.Shards {
		net.PinThreads(s.M, s.Srv.Name())
	}
}

// ShardOf returns the owning shard of key j.
func (f *Fleet) ShardOf(j int) int { return f.shard[j] }

// receipt is a shard network's delivery hook: it rejects receipts from a
// shard that does not own the key, then applies the in-order rule.
func (f *Fleet) receipt(shard int, r net.Receipt) {
	if r.Conn < 0 || r.Conn >= f.Keys() {
		f.Violations = append(f.Violations, fmt.Sprintf("shard %d: receipt for unknown conn %d", shard, r.Conn))
		return
	}
	if owner := f.shard[r.Conn]; owner != shard {
		f.Violations = append(f.Violations,
			fmt.Sprintf("key %d: response from shard %d but the ring owner is %d", r.Conn, shard, owner))
		return
	}
	f.Receive(r)
}

// nextArrival locates the earliest queued frame across every shard's NIC
// queues, ties broken by shard index.
func (f *Fleet) nextArrival() (int, simclock.Time, bool) {
	bestShard, bestAt, ok := -1, simclock.Time(0), false
	for i, s := range f.c.Shards {
		if at, have := s.Net.NextArrival(); have && (!ok || at < bestAt) {
			bestShard, bestAt, ok = i, at, true
		}
	}
	return bestShard, bestAt, ok
}

// dispatch runs the server side of one frame on its shard: the kvstore SET
// on the key's worker thread, then the response through the shard's gate
// (or straight out when ungated). The router header is charged both ways.
//
// Tracking a gated response after SetAt returns is safe here, unlike on a
// single machine (net.Fleet tracks from inside the operation): a shard's
// driver is deferred, so a checkpoint that RunAt fires as the operation
// ends never releases anything. Only the coordinator's release phase does,
// and it never runs inside a dispatch.
func (f *Fleet) dispatch(shard int) func(p net.Packet, ready simclock.Time) error {
	s := f.c.Shards[shard]
	return func(p net.Packet, ready simclock.Time) error {
		key := f.Key(p.Conn)
		tid := p.Conn % f.srvThreads
		val := f.Value(p.Conn, p.Req)
		if owner := f.c.Ring.Owner(key); owner != shard {
			// A straggler: the frame was queued here before the ring
			// flipped this key away. Relay it to the current owner over
			// the migration mesh and serve it there — the response then
			// rides the owner's network, matching the rerouted shard[j].
			arrive := f.c.ForwardRequest(shard, owner,
				len(key)+f.cfg.ValueBytes+net.RouteHeaderBytes, ready)
			o := f.c.Shards[owner]
			res, seq, err := o.Srv.SetAt(arrive, tid, key, val)
			if err != nil {
				return err
			}
			if o.Net.Gated() {
				o.Net.TrackResponse(seq, p.Conn, p.Req, p.Submit, res.End)
			} else {
				o.Net.CompleteDirect(p.Conn, p.Req, p.Submit, len(val)+net.RouteHeaderBytes, res.Core)
			}
			return nil
		}
		res, seq, err := s.Srv.SetAt(ready, tid, key, val)
		if err != nil {
			return err
		}
		// An in-flight migration dual-writes this value to the key's
		// destination (no-op outside an epoch or for unmoved keys), so the
		// install never goes stale behind answered traffic.
		if _, err := f.c.DualWrite(key, val, res.End); err != nil {
			return err
		}
		if s.Net.Gated() {
			s.Net.TrackResponse(seq, p.Conn, p.Req, p.Submit, res.End)
		} else {
			s.Net.CompleteDirect(p.Conn, p.Req, p.Submit, len(val)+net.RouteHeaderBytes, res.Core)
		}
		return nil
	}
}

// Step advances the fleet by one deterministic micro-step: the earlier of
// (earliest queued frame across shards) and (earliest eligible send) runs.
// When neither exists it returns StepDone if every budget is met, and
// StepBlocked if gated responses are parked behind the next cut — the
// harness answers StepBlocked by running a cluster round.
func (f *Fleet) Step() (StepStatus, error) {
	shard, arriveAt, haveFrame := f.nextArrival()
	j, sendAt, haveSender := f.NextSender()
	if haveFrame && (!haveSender || arriveAt <= sendAt) {
		_, err := f.c.Shards[shard].Net.DispatchNext(f.dispatch(shard))
		return StepProgress, err
	}
	if haveSender {
		req := f.Send(j)
		f.sentShard[j] = f.shard[j]
		f.c.Shards[f.shard[j]].Net.SendRequest(j, req,
			len(f.Key(j))+f.cfg.ValueBytes+net.RouteHeaderBytes, sendAt)
		if f.OnSend != nil {
			f.OnSend(j, req, sendAt)
		}
		return StepProgress, nil
	}
	if f.Outstanding() == 0 && f.Done() {
		return StepDone, nil
	}
	return StepBlocked, nil
}

// Advance performs one micro-action of the cluster world: the one step
// policy every cluster harness shares. A round in flight advances one
// protocol action (so crashes can land between any two of them).
// Otherwise, while a migration epoch is open, migration and fleet steps
// strictly alternate, which keeps the schedule deterministic while keys
// stream under live writes; and a round opens for blocked gates only when
// no epoch holds the ring. Advance returns the fleet step's status, or
// StepProgress for a round or migration step.
func (f *Fleet) Advance() (StepStatus, error) {
	if f.c.CurrentPhase() != PhaseIdle {
		return StepProgress, f.c.Step()
	}
	if f.c.MigrationInFlight() && f.migTurn {
		f.migTurn = false
		return StepProgress, f.c.MigStep()
	}
	f.migTurn = true
	st, err := f.Step()
	if err != nil {
		return st, err
	}
	if st == StepBlocked && !f.c.MigrationInFlight() {
		f.c.StartRound()
	}
	return st, nil
}

// Run drives the fleet to completion (requires Requests > 0), answering
// every StepBlocked with a full cluster round — the steady-state loop of
// "serve traffic, cut, release".
func (f *Fleet) Run() error {
	if f.cfg.Requests <= 0 {
		return fmt.Errorf("cluster: Run needs a bounded FleetConfig.Requests")
	}
	limit := f.Keys()*f.cfg.Requests*64 + 16384
	for i := 0; ; i++ {
		if i > limit {
			return fmt.Errorf("cluster: no progress after %d micro-steps (%d/%d acked)",
				limit, f.TotalAcked(), f.Keys()*f.cfg.Requests)
		}
		st, err := f.Step()
		if err != nil {
			return err
		}
		switch st {
		case StepDone:
			return nil
		case StepBlocked:
			if err := f.c.Round(); err != nil {
				return err
			}
		}
	}
}

// ResyncShard realigns the fleet with shard i after it crashed and
// recovered: the shard's queued frames and unreleased responses are gone,
// so every key it owns rewinds its send cursor to its last acknowledged
// request and retransmits after a one-RTT timeout. Keys on other shards
// are untouched — the failure is partial, which is the point of sharding.
func (f *Fleet) ResyncShard(i int) {
	s := f.c.Shards[i]
	s.Net.OnMachineRestore()
	f.pinThreads()
	rto := s.M.Now().Add(s.M.Model.NetRTT)
	for j, owner := range f.shard {
		if owner == i || f.sentShard[j] == i {
			f.Rewind(j, rto)
			f.sentShard[j] = owner
		}
	}
}

// ResyncAll resyncs every shard (after a whole-cluster power failure).
func (f *Fleet) ResyncAll() {
	for i := range f.c.Shards {
		f.ResyncShard(i)
	}
}

// PeekCounter reads key j's stored request counter from its owning shard's
// state (0 when absent): the oracle read the justification and
// linearizability checks compare acknowledgements against.
func (f *Fleet) PeekCounter(j int) (uint64, error) {
	key, shard := f.Key(j), f.shard[j]
	val, ok, err := f.c.Shards[shard].Srv.Peek(key)
	if err != nil {
		return 0, fmt.Errorf("cluster: peeking %q on shard %d: %w", key, shard, err)
	}
	if !ok {
		return 0, nil
	}
	return net.CounterValue(val), nil
}

// CheckSoleOwner asserts that no ACKNOWLEDGED request was ever served by a
// shard that was not the key's ring owner. Migrations legitimately leave
// copies behind — stale remnants on old sources, unacknowledged dual-write
// remnants on destinations after an abort rolled the source back — so a
// non-owner copy being fresher than the owner is not by itself damning. The
// two-owner-serve signature is an acknowledged counter value present at a
// non-owner while MISSING at the owner: the client got its receipt from a
// shard the ring did not point at.
func (f *Fleet) CheckSoleOwner() ([]string, error) {
	var bad []string
	for j := 0; j < f.Keys(); j++ {
		key := f.Key(j)
		owner := f.c.Ring.Owner(key)
		var ownerVal uint64
		if v, ok, err := f.c.Shards[owner].Srv.Peek(key); err != nil {
			return nil, fmt.Errorf("cluster: peeking %q on owner %d: %w", key, owner, err)
		} else if ok {
			ownerVal = net.CounterValue(v)
		}
		for i, s := range f.c.Shards {
			if i == owner {
				continue
			}
			v, ok, err := s.Srv.Peek(key)
			if err != nil {
				return nil, fmt.Errorf("cluster: peeking %q on shard %d: %w", key, i, err)
			}
			if ok {
				cv := net.CounterValue(v)
				if cv > ownerVal && cv <= f.Acked(j) {
					bad = append(bad, fmt.Sprintf(
						"key %d: acked counter %d lives on shard %d but ring owner %d holds %d",
						j, cv, i, owner, ownerVal))
				}
			}
		}
	}
	return bad, nil
}

// CheckJustified asserts the cluster-wide external-synchrony invariant
// against the restored stores, reading each key's counter from its owning
// shard (see net.Clients.Unjustified): the cut gate exists to prevent an
// acknowledged-but-unpersisted response.
func (f *Fleet) CheckJustified() ([]string, error) {
	return f.Unjustified(f.PeekCounter)
}
