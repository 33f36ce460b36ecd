package net

import (
	"encoding/binary"
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

// client is one closed-loop connection. Request i (1-based) writes the
// connection's counter key to i; the response echoes that value, so an
// acknowledgement for request i certifies the server durably holds (or
// held) counter >= i once released through the gate.
type client struct {
	id         int
	key        []byte
	sent       uint64 // highest request index put on the wire
	acked      uint64 // highest contiguously acknowledged request index
	nextSendAt simclock.Time
}

// Fleet drives closed-loop window-pipelined clients against a kvstore
// server through the simulated network. All scheduling is deterministic:
// Step executes exactly one micro-step chosen by simulated-time priority.
type Fleet struct {
	net        *Network
	srv        *kvstore.Server
	cfg        FleetConfig
	cl         []*client
	srvThreads int

	// OnAck, when set, observes every in-order acknowledgement (scenario
	// digests hang off this).
	OnAck func(conn int, req uint64, recv simclock.Time)

	// Latencies collects per-request client-observed latency in send
	// order of acknowledgement.
	Latencies []simclock.Duration
	// Violations records client-visible ordering violations (a response
	// for request i arriving before i-1 was acknowledged). Must stay
	// empty: the per-connection FIFO property.
	Violations []string
	// Retransmits counts requests re-sent after a crash dropped their
	// frame or their un-released response.
	Retransmits uint64
	// DupAcks counts responses for already-acknowledged requests (never
	// produced by the gated path; a diagnostic for harness bugs).
	DupAcks uint64
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
	f := &Fleet{net: n, srv: srv, cfg: cfg}
	p := n.Machine().Process(srv.Name())
	if p == nil {
		return nil, fmt.Errorf("net: server process %q not found", srv.Name())
	}
	f.srvThreads = len(p.Threads)
	f.applyAffinity()
	for i := 0; i < cfg.Clients; i++ {
		f.cl = append(f.cl, &client{id: i, key: []byte(fmt.Sprintf("conn%04d", i))})
	}
	n.SetOnReceipt(f.receipt)
	if n.Machine().Obs.MetricsOn() {
		n.Machine().Obs.Metrics.GaugeFunc("net.retransmits", func() int64 { return int64(f.Retransmits) })
	}
	return f, nil
}

// applyAffinity pins server worker threads round-robin to cores. Idempotent
// and re-applied after restore (the snapshot preserves affinity; this keeps
// the fleet independent of that detail).
func (f *Fleet) applyAffinity() {
	m := f.net.Machine()
	p := m.Process(f.srv.Name())
	if p == nil {
		return
	}
	for i, th := range p.Threads {
		th.Sched.Affinity = i % len(m.Cores)
	}
}

// Config returns the fleet's (defaulted) configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// Acked returns connection conn's highest contiguously acknowledged
// request index.
func (f *Fleet) Acked(conn int) uint64 { return f.cl[conn].acked }

// TotalAcked sums acknowledged requests across connections.
func (f *Fleet) TotalAcked() uint64 {
	var t uint64
	for _, c := range f.cl {
		t += c.acked
	}
	return t
}

// valueFor builds request req's value: the 8-byte big-endian request index
// padded with a connection-seasoned pattern to ValueBytes.
func (f *Fleet) valueFor(conn int, req uint64) []byte {
	v := make([]byte, f.cfg.ValueBytes)
	binary.BigEndian.PutUint64(v, req)
	for i := 8; i < len(v); i++ {
		v[i] = byte(conn + i)
	}
	return v
}

// CounterValue parses the per-connection counter out of a stored value.
func CounterValue(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// receipt is the network's delivery hook: in-order responses advance the
// window, stale ones count as duplicates, gaps are FIFO violations.
func (f *Fleet) receipt(r Receipt) {
	c := f.cl[r.Conn]
	switch {
	case r.Req == c.acked+1:
		c.acked++
		f.Latencies = append(f.Latencies, r.Receive.Sub(r.Submit))
		if t := r.Receive.Add(f.cfg.Think); t > c.nextSendAt {
			c.nextSendAt = t
		}
		if f.OnAck != nil {
			f.OnAck(r.Conn, r.Req, r.Receive)
		}
	case r.Req <= c.acked:
		f.DupAcks++
	default:
		f.Violations = append(f.Violations,
			fmt.Sprintf("conn %d: response for request %d arrived with only %d acknowledged", r.Conn, r.Req, c.acked))
	}
}

// nextSender picks the earliest-eligible client (window open, requests
// remaining), ties broken by connection id.
func (f *Fleet) nextSender() (*client, bool) {
	var best *client
	for _, c := range f.cl {
		if f.cfg.Requests > 0 && c.sent >= uint64(f.cfg.Requests) {
			continue
		}
		if c.sent-c.acked >= uint64(f.cfg.Window) {
			continue
		}
		if best == nil || c.nextSendAt < best.nextSendAt {
			best = c
		}
	}
	return best, best != nil
}

// dispatch runs the server side of one received frame: the kvstore SET on
// the connection's worker thread, then the response through the gate (or
// straight out when ungated).
func (f *Fleet) dispatch(p Packet, ready simclock.Time) error {
	tid := p.Conn % f.srvThreads
	val := f.valueFor(p.Conn, p.Req)
	// A gated response is tracked from inside the operation: a checkpoint
	// that comes due while it runs fires before SetAtNotify returns and
	// releases the response at its commit.
	res, err := f.srv.SetAtNotify(ready, tid, f.cl[p.Conn].key, val, func(seq uint64, at simclock.Time) {
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
	sender, haveSender := f.nextSender()
	if haveFrame && (!haveSender || arriveAt <= sender.nextSendAt) {
		_, err := f.net.DispatchNext(f.dispatch)
		return false, err
	}
	if haveSender {
		c := sender
		c.sent++
		f.net.SendRequest(c.id, c.sent, len(c.key)+f.cfg.ValueBytes, c.nextSendAt)
		return false, nil
	}
	// No frames, no open windows: either everything is done, or gated
	// acknowledgements are parked behind the next commit.
	if f.outstanding() == 0 {
		return f.doneAll(), nil
	}
	m := f.net.Machine()
	if next := m.NextCheckpointAt(); next > 0 {
		m.SettleTo(next)
	} else {
		m.TakeCheckpoint()
	}
	return false, nil
}

func (f *Fleet) outstanding() int {
	var o int
	for _, c := range f.cl {
		o += int(c.sent - c.acked)
	}
	return o
}

func (f *Fleet) doneAll() bool {
	if f.cfg.Requests <= 0 {
		return false
	}
	for _, c := range f.cl {
		if c.acked < uint64(f.cfg.Requests) {
			return false
		}
	}
	return true
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
// and restored. In-flight frames and unreleased responses are gone, so each
// client rewinds its send cursor to its last acknowledged request and
// retransmits from there after a one-RTT timeout. Retransmitted SETs are
// idempotent absolute writes, so replay is safe.
func (f *Fleet) ResyncAfterRestore() {
	f.net.OnMachineRestore()
	f.applyAffinity()
	m := f.net.Machine()
	rto := m.Now().Add(m.Model.NetRTT)
	for _, c := range f.cl {
		f.Retransmits += c.sent - c.acked
		c.sent = c.acked
		if rto > c.nextSendAt {
			c.nextSendAt = rto
		}
	}
}

// CheckJustified asserts the external-synchrony invariant against the
// restored store: for every connection, the client's highest acknowledged
// request index must not exceed the counter the restored state holds — an
// acknowledged-but-unpersisted response is exactly the output commit the
// gate exists to prevent. Returns one description per violated connection.
func (f *Fleet) CheckJustified() ([]string, error) {
	var bad []string
	for _, c := range f.cl {
		val, ok, err := f.srv.Peek(c.key)
		if err != nil {
			return nil, fmt.Errorf("net: peeking %q: %w", c.key, err)
		}
		var counter uint64
		if ok {
			counter = CounterValue(val)
		}
		if c.acked > counter {
			bad = append(bad, fmt.Sprintf(
				"conn %d: client holds an acknowledgement for request %d but restored state justifies only %d",
				c.id, c.acked, counter))
		}
	}
	return bad, nil
}
