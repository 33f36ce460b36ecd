package net

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/simclock"
)

// FleetConfig sizes a simulated client fleet.
type FleetConfig struct {
	// Clients is the number of concurrent connections (default 4).
	Clients int
	// Requests per client; 0 means unbounded (a harness drives Step
	// itself and decides when to stop).
	Requests int
	// Window is the per-connection pipeline depth (default 4).
	Window int
	// ValueBytes is the SET value size (>= 8; default 64; must fit an
	// extsync slot in gated mode).
	ValueBytes int
	// Think is the client pause between an acknowledgement and the next
	// send it unblocks.
	Think simclock.Duration
}

// Fleet drives closed-loop window-pipelined clients against a kvstore
// server through the simulated network, one key (conn%04d) per connection.
// All scheduling is deterministic: Step executes exactly one micro-step
// chosen by simulated-time priority.
type Fleet struct {
	Clients
	net        *Network
	srv        *kvstore.Server
	cfg        FleetConfig
	srvThreads int
}

// NewFleet builds the fleet and wires it to the network's receipt hook.
// Server worker threads are pinned round-robin to cores so request steering
// stays deterministic under load.
func NewFleet(n *Network, srv *kvstore.Server, cfg FleetConfig) (*Fleet, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.ValueBytes < 8 {
		cfg.ValueBytes = 64
	}
	if n.Gated() && cfg.ValueBytes > 200 {
		return nil, fmt.Errorf("net: ValueBytes %d too large for a gated response slot", cfg.ValueBytes)
	}
	p := n.Machine().Process(srv.Name())
	if p == nil {
		return nil, fmt.Errorf("net: server process %q not found", srv.Name())
	}
	keys := make([][]byte, cfg.Clients)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("conn%04d", i))
	}
	f := &Fleet{
		Clients:    NewClients(keys, 1, cfg.Requests, cfg.Window, cfg.ValueBytes, cfg.Think),
		net:        n,
		srv:        srv,
		cfg:        cfg,
		srvThreads: len(p.Threads),
	}
	PinThreads(n.Machine(), srv.Name())
	n.SetOnReceipt(f.Receive)
	if n.Machine().Obs.MetricsOn() {
		n.Machine().Obs.Metrics.GaugeFunc("net.retransmits", func() int64 { return int64(f.Retransmits) })
	}
	return f, nil
}

// dispatch runs the server side of one received frame: the kvstore SET on
// the connection's worker thread, then the response through the gate (or
// straight out when ungated).
func (f *Fleet) dispatch(p Packet, ready simclock.Time) error {
	tid := p.Conn % f.srvThreads
	val := f.Value(p.Conn, p.Req)
	// A gated response is tracked from inside the operation: a checkpoint
	// that comes due while it runs fires before SetAtNotify returns and
	// releases the response at its commit.
	res, err := f.srv.SetAtNotify(ready, tid, f.Key(p.Conn), val, func(seq uint64, at simclock.Time) {
		f.net.TrackResponse(seq, p.Conn, p.Req, p.Submit, at)
	})
	if err != nil || f.net.Gated() {
		return err
	}
	f.net.CompleteDirect(p.Conn, p.Req, p.Submit, len(val), res.Core)
	return nil
}

// Step advances the fleet by one deterministic micro-step: the earlier of
// (earliest queued frame arrival) and (earliest eligible client send) runs;
// if neither exists but acknowledgements are outstanding, the machine idles
// to the next checkpoint so the release-on-commit hook can run (gated mode
// only reaches this when every client is window-blocked). Returns done=true
// once every client has received every configured response.
func (f *Fleet) Step() (bool, error) {
	arriveAt, haveFrame := f.net.NextArrival()
	j, sendAt, haveSender := f.NextSender()
	if haveFrame && (!haveSender || arriveAt <= sendAt) {
		_, err := f.net.DispatchNext(f.dispatch)
		return false, err
	}
	if haveSender {
		f.net.SendRequest(j, f.Send(j), len(f.Key(j))+f.cfg.ValueBytes, sendAt)
		return false, nil
	}
	// No frames, no open windows: either everything is done, or gated
	// acknowledgements are parked behind the next commit.
	if f.Outstanding() == 0 {
		return f.Done(), nil
	}
	m := f.net.Machine()
	if next := m.NextCheckpointAt(); next > 0 {
		m.SettleTo(next)
	} else {
		m.TakeCheckpoint()
	}
	return false, nil
}

// Run drives Step until every client finishes (requires Requests > 0).
func (f *Fleet) Run() error {
	if f.cfg.Requests <= 0 {
		return fmt.Errorf("net: Run needs a bounded FleetConfig.Requests")
	}
	limit := f.cfg.Clients*f.cfg.Requests*64 + 16384
	for i := 0; ; i++ {
		if i > limit {
			return fmt.Errorf("net: no progress after %d micro-steps (%d/%d acked)",
				limit, f.TotalAcked(), f.cfg.Clients*f.cfg.Requests)
		}
		done, err := f.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// ResyncAfterRestore realigns the fleet with a machine that just crashed
// and restored: in-flight frames and unreleased responses are gone, so
// every connection rewinds to its last acknowledged request and
// retransmits after a one-RTT timeout.
func (f *Fleet) ResyncAfterRestore() {
	f.net.OnMachineRestore()
	m := f.net.Machine()
	PinThreads(m, f.srv.Name())
	rto := m.Now().Add(m.Model.NetRTT)
	for j := range f.keys {
		f.Rewind(j, rto)
	}
}

// CheckJustified asserts the external-synchrony invariant against the
// restored store (see Clients.Unjustified).
func (f *Fleet) CheckJustified() ([]string, error) {
	return f.Unjustified(func(j int) (uint64, error) {
		val, ok, err := f.srv.Peek(f.Key(j))
		if err != nil {
			return 0, fmt.Errorf("net: peeking %q: %w", f.Key(j), err)
		}
		if !ok {
			return 0, nil
		}
		return CounterValue(val), nil
	})
}
