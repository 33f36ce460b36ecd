// Package net is the deterministic simulated network of the TreeSLS
// reproduction: per-core NIC receive queues fed by simulated client fleets,
// a calibrated latency/bandwidth cost model (simclock's NetWireByte /
// NetPropagation / NetRxIRQ entries), and — in gated mode — server
// responses routed through the external-synchrony driver (§5), so a
// response reaches the wire only at the release-on-commit hook of the
// checkpoint that covers the state that produced it.
//
// The model:
//
//   - A client request is a frame put on the wire at its submit time. It is
//     steered to the NIC queue of core conn%cores (static RSS) and arrives
//     after the one-way propagation delay plus its serialization time.
//   - Receiving a frame raises the queue's IRQ line (a checkpointed kernel
//     object bound to a netd thread), charges the interrupt dispatch and
//     the copy out of the RX ring to the queue's lane, and hands the frame
//     to the server application via IPC (kernel.NetRxInterrupt).
//   - Ungated responses leave at operation end (NetTx doorbell + wire).
//     Gated responses buffer in the extsync ring; when a checkpoint commit
//     releases them, the network computes the client receive time and
//     resolves the request.
//   - A power failure destroys frames sitting in NIC queues and the
//     attribution of buffered-but-unreleased responses (the driver itself
//     discards the response bytes); packets already released were handed to
//     the hardware and survive. Clients retransmit what was never answered.
//
// Everything is single-threaded simulated time: same inputs produce
// bit-identical traffic, receipts, and trace output (the scenario
// subpackage's determinism regression runs under -race).
package net

import (
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// FrameHeader is the per-frame wire overhead (Ethernet+IP+transport-ish)
// added to every request and response payload.
const FrameHeader = 48

// Config configures the simulated network attached to one machine.
type Config struct {
	// Gated routes server responses through the external-synchrony
	// driver: they buffer in the eternal ring and reach the wire only at
	// the release-on-commit hook of the next checkpoint. Ungated
	// responses leave at operation end (the crash-unsafe baseline the
	// scenario harness exists to expose).
	Gated bool
	// RingSlots sizes the extsync ring in gated mode (default 4096).
	RingSlots uint64
}

// Packet is one client request frame in flight or queued on a NIC.
type Packet struct {
	Conn   int
	Req    uint64 // per-connection request index (1-based)
	Bytes  int    // wire size including FrameHeader
	Submit simclock.Time
	Arrive simclock.Time
}

// Receipt is one response that reached its client.
type Receipt struct {
	Conn    int
	Req     uint64
	Submit  simclock.Time // client send time of the request
	Receive simclock.Time // client receive time of the response
}

// Stats counts network activity.
type Stats struct {
	// Requests counts frames put on the wire by clients.
	Requests uint64
	// Dispatched counts frames received and handed to the server.
	Dispatched uint64
	// Responses counts responses that reached a client.
	Responses uint64
	// Buffered counts gated responses parked in the ring awaiting a
	// covering commit.
	Buffered uint64
	// DroppedRequests counts frames destroyed in NIC queues by a power
	// failure.
	DroppedRequests uint64
	// DroppedResponses counts buffered-but-unreleased responses whose
	// attribution was discarded at restore (the driver discarded the
	// bytes; the client never saw them).
	DroppedResponses uint64
	// UnknownSeq counts released ring messages with no tracked request —
	// always zero unless a harness bypasses TrackResponse.
	UnknownSeq uint64
}

// pendingResp attributes a buffered ring message to the request it answers.
type pendingResp struct {
	conn     int
	req      uint64
	submit   simclock.Time
	buffered simclock.Time
}

// Network is the simulated network device of one machine.
type Network struct {
	m   *kernel.Machine
	cfg Config

	// Driver is the external-synchrony driver (nil when ungated).
	Driver *extsync.Driver

	rx     [][]Packet // per-core NIC receive queues
	irqIDs []uint64   // per-core NIC IRQ object IDs (stable across restore)

	// cached IRQ resolution, invalidated when the tree is replaced.
	cachedTree *caps.Tree
	cachedIRQ  []*caps.IRQNotification

	inflight map[uint64]pendingResp // ring seq -> request attribution

	onReceipt func(Receipt)

	events uint64 // monotone network-event counter (crash-at-event-K)

	Stats Stats

	// ReleaseLags collects, per gated response, the time it waited in the
	// ring between the operation's end and its release at commit — the
	// quantity the latency-vs-interval experiment reports.
	ReleaseLags []simclock.Duration

	latency    *obs.Histogram
	releaseLag *obs.Histogram
}

// New attaches a simulated network to the machine: one NIC queue and IRQ
// line per core (bound to netd handler threads), and in gated mode the
// external-synchrony ring driver.
func New(m *kernel.Machine, cfg Config) (*Network, error) {
	if cfg.RingSlots == 0 {
		cfg.RingSlots = 4096
	}
	netd := m.Process("netd")
	if netd == nil {
		return nil, fmt.Errorf("net: no netd process (machine booted without services?)")
	}
	n := &Network{
		m:        m,
		cfg:      cfg,
		rx:       make([][]Packet, len(m.Cores)),
		inflight: make(map[uint64]pendingResp),
	}
	for i := range m.Cores {
		irq := netd.BindIRQ(i, netd.Threads[i%len(netd.Threads)])
		n.irqIDs = append(n.irqIDs, irq.ID())
	}
	if cfg.Gated {
		d, err := extsync.NewDriver(m, cfg.RingSlots)
		if err != nil {
			return nil, err
		}
		d.SetDeliver(n.deliver)
		n.Driver = d
	}
	if m.Obs.MetricsOn() {
		r := m.Obs.Metrics
		n.latency = r.Histogram("net.latency_ns", nil)
		n.releaseLag = r.Histogram("net.release_lag_ns", nil)
		r.GaugeFunc("net.requests", func() int64 { return int64(n.Stats.Requests) })
		r.GaugeFunc("net.responses", func() int64 { return int64(n.Stats.Responses) })
		r.GaugeFunc("net.buffered", func() int64 { return int64(n.Stats.Buffered) })
		r.GaugeFunc("net.dropped_requests", func() int64 { return int64(n.Stats.DroppedRequests) })
		r.GaugeFunc("net.dropped_responses", func() int64 { return int64(n.Stats.DroppedResponses) })
	}
	return n, nil
}

// Gated reports whether responses are routed through the release-on-commit
// hook.
func (n *Network) Gated() bool { return n.cfg.Gated }

// Machine returns the hosting machine.
func (n *Network) Machine() *kernel.Machine { return n.m }

// SetOnReceipt installs the client-side hook invoked for every response
// that reaches its client.
func (n *Network) SetOnReceipt(fn func(Receipt)) { n.onReceipt = fn }

// Events returns the monotone network-event counter: it advances on every
// request send, dispatch, response buffering, release, receipt, and drop,
// giving scenario scripts a deterministic coordinate for "crash at event K".
func (n *Network) Events() uint64 { return n.events }

func (n *Network) event() { n.events++ }

// wireTime is the client<->server one-way flight time of a frame.
func (n *Network) wireTime(bytes int) simclock.Duration {
	return n.m.Model.NetPropagation + simclock.Duration(bytes)*n.m.Model.NetWireByte
}

// irqFor resolves core's NIC IRQ object in the current runtime tree (the
// pointer changes across restore; the object ID does not).
func (n *Network) irqFor(core int) *caps.IRQNotification {
	tree := n.m.Ckpt.Tree()
	if tree != n.cachedTree || n.cachedIRQ == nil {
		n.cachedIRQ = make([]*caps.IRQNotification, len(n.irqIDs))
		tree.Walk(func(o caps.Object) {
			if irq, ok := o.(*caps.IRQNotification); ok {
				for i, id := range n.irqIDs {
					if irq.ID() == id {
						n.cachedIRQ[i] = irq
					}
				}
			}
		})
		n.cachedTree = tree
	}
	irq := n.cachedIRQ[core]
	if irq == nil {
		panic(fmt.Sprintf("net: NIC IRQ for core %d vanished from the tree", core))
	}
	return irq
}

// SendRequest puts one client request frame on the wire at submit time.
// payloadBytes excludes FrameHeader.
func (n *Network) SendRequest(conn int, req uint64, payloadBytes int, submit simclock.Time) {
	core := conn % len(n.rx)
	bytes := payloadBytes + FrameHeader
	n.rx[core] = append(n.rx[core], Packet{
		Conn:   conn,
		Req:    req,
		Bytes:  bytes,
		Submit: submit,
		Arrive: submit.Add(n.wireTime(bytes)),
	})
	n.Stats.Requests++
	n.event()
}

// NextArrival returns the earliest queued frame's arrival time, or false if
// every NIC queue is empty.
func (n *Network) NextArrival() (simclock.Time, bool) {
	_, _, at, ok := n.earliest()
	return at, ok
}

// earliest locates the earliest queued frame across all NIC queues,
// ordering by (arrival, conn, req) so ties are deterministic.
func (n *Network) earliest() (core, idx int, at simclock.Time, ok bool) {
	core, idx = -1, -1
	for c := range n.rx {
		for i, p := range n.rx[c] {
			if !ok || p.Arrive < at ||
				(p.Arrive == at && (p.Conn < n.rx[core][idx].Conn ||
					(p.Conn == n.rx[core][idx].Conn && p.Req < n.rx[core][idx].Req))) {
				core, idx, at, ok = c, i, p.Arrive, true
			}
		}
	}
	return
}

// DispatchNext receives the earliest queued frame — NIC RX interrupt on its
// queue's lane, ack, copy out — and hands it to handler together with the
// time at which the driver has it ready to IPC to the server. Returns false
// if no frame is queued.
func (n *Network) DispatchNext(handler func(p Packet, ready simclock.Time) error) (bool, error) {
	core, idx, _, ok := n.earliest()
	if !ok {
		return false, nil
	}
	p := n.rx[core][idx]
	n.rx[core] = append(n.rx[core][:idx], n.rx[core][idx+1:]...)
	lane := &n.m.Cores[core].Lane
	lane.AdvanceTo(p.Arrive) // the frame cannot be received before it arrives
	ready := n.m.NetRxInterrupt(n.irqFor(core), core, p.Bytes)
	n.Stats.Dispatched++
	n.event()
	return true, handler(p, ready)
}

// TrackResponse records that ring message seq answers (conn, req). The
// deliver callback resolves it when the covering checkpoint commits.
func (n *Network) TrackResponse(seq uint64, conn int, req uint64, submit, buffered simclock.Time) {
	n.inflight[seq] = pendingResp{conn: conn, req: req, submit: submit, buffered: buffered}
	n.Stats.Buffered++
	n.event()
}

// deliver is the extsync release hook: the covering checkpoint committed,
// the response is on the wire.
func (n *Network) deliver(seq uint64, payload []byte, at simclock.Time) {
	pr, ok := n.inflight[seq]
	if !ok {
		n.Stats.UnknownSeq++
		return
	}
	delete(n.inflight, seq)
	n.ReleaseLags = append(n.ReleaseLags, at.Sub(pr.buffered))
	if n.releaseLag != nil {
		n.releaseLag.Observe(int64(at.Sub(pr.buffered)))
	}
	n.event() // released
	recv := at.Add(n.wireTime(len(payload) + FrameHeader))
	n.complete(Receipt{Conn: pr.conn, Req: pr.req, Submit: pr.submit, Receive: recv})
}

// CompleteDirect sends an ungated response straight from the server: the
// doorbell and serialization are charged to the lane that ran the
// operation, and the client receives it one flight later.
func (n *Network) CompleteDirect(conn int, req uint64, submit simclock.Time, payloadBytes, core int) {
	bytes := payloadBytes + FrameHeader
	sent := n.m.NetTx(&n.m.Cores[core].Lane, bytes)
	n.complete(Receipt{Conn: conn, Req: req, Submit: submit, Receive: sent.Add(n.wireTime(bytes))})
}

func (n *Network) complete(r Receipt) {
	n.Stats.Responses++
	if n.latency != nil {
		n.latency.Observe(int64(r.Receive.Sub(r.Submit)))
	}
	if n.m.Obs.TraceOn() {
		n.m.Obs.Trace.Span(r.Conn%len(n.rx), r.Submit, r.Receive, "net", "request",
			obs.I("conn", int64(r.Conn)), obs.I("req", int64(r.Req)),
			obs.I("gated", boolArg(n.cfg.Gated)))
	}
	n.event()
	if n.onReceipt != nil {
		n.onReceipt(r)
	}
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// OnMachineRestore discards the device state a power failure destroys:
// frames sitting in NIC RX queues and the attribution of
// buffered-but-unreleased responses (the extsync driver already discarded
// the response bytes at its own restore callback). Responses released
// before the failure were handed to the hardware and are NOT dropped —
// their receipts stand. Returns (dropped requests, dropped responses).
func (n *Network) OnMachineRestore() (int, int) {
	var dr int
	for i := range n.rx {
		dr += len(n.rx[i])
		n.rx[i] = n.rx[i][:0]
	}
	dresp := len(n.inflight)
	clear(n.inflight)
	n.cachedTree, n.cachedIRQ = nil, nil
	n.Stats.DroppedRequests += uint64(dr)
	n.Stats.DroppedResponses += uint64(dresp)
	if dr+dresp > 0 {
		n.event()
	}
	return dr, dresp
}

// InFlight reports how many buffered responses currently await a covering
// commit.
func (n *Network) InFlight() int { return len(n.inflight) }

// QueuedRequests reports how many request frames sit in NIC queues.
func (n *Network) QueuedRequests() int {
	var q int
	for i := range n.rx {
		q += len(n.rx[i])
	}
	return q
}
