package net

// A point-to-point replication link between a primary and its hot standby,
// built on the same wire cost model as the client-facing network
// (NetPropagation + per-byte serialization). The link carries checkpoint
// deltas and their acks, of which it sees only the sizes, segments large
// payloads at the MTU, and applies window-based flow control: at most
// WindowBytes of un-acked payload may be in flight, so a lagging standby
// back-pressures the primary instead of letting the delta stream run
// arbitrarily ahead.
//
// The link is pure deterministic arithmetic over simulated time — no
// goroutines, no queues draining in the background. Send computes when the
// transmission can start (serialized after the previous one, stalled until
// the window admits the payload) and when the last byte lands on the far
// side; the caller folds those instants into its lanes.

import "treesls/internal/simclock"

// LinkMTU is the maximum payload per link frame; larger payloads are
// segmented and each segment pays the FrameHeader.
const LinkMTU = 1460

// AckBytes is the wire size of an ack frame: header plus the acked version
// and the standby's durable digest acknowledgment (8 bytes each).
const AckBytes = FrameHeader + 16

// LinkStats counts replication-link activity.
type LinkStats struct {
	// FramesSent counts wire frames (segments), acks excluded.
	FramesSent uint64
	// BytesSent counts payload + header bytes put on the wire, acks
	// excluded.
	BytesSent uint64
	// Acks counts acknowledged sends.
	Acks uint64
	// Stalls counts sends delayed by window flow control.
	Stalls uint64
	// StallTime accumulates how long sends waited on the window.
	StallTime simclock.Duration
}

// linkSend is one un-acked transmission.
type linkSend struct {
	payload int
	// ackArrive is when the ack for this send reaches the primary; zero
	// until Ack records it.
	ackArrive simclock.Time
}

// Link is the replication pipe. It tracks serialization (one transmission
// at a time) and the flow-control window over un-acked payload bytes.
type Link struct {
	model *simclock.CostModel
	// windowBytes caps un-acked payload in flight (0 = unlimited).
	windowBytes int

	busyUntil   simclock.Time
	outstanding []linkSend // FIFO, un-acked first
	inFlight    int        // sum of outstanding payloads

	Stats LinkStats
}

// NewLink creates a link on the given cost model with the given flow-control
// window (bytes of un-acked payload; 0 disables flow control).
func NewLink(model *simclock.CostModel, windowBytes int) *Link {
	if model == nil {
		model = simclock.DefaultCostModel()
	}
	return &Link{model: model, windowBytes: windowBytes}
}

// WireBytes returns the on-the-wire size of a payload after MTU
// segmentation: every segment pays the FrameHeader.
func WireBytes(payloadBytes int) int {
	segs := (payloadBytes + LinkMTU - 1) / LinkMTU
	if segs == 0 {
		segs = 1
	}
	return payloadBytes + segs*FrameHeader
}

// Send transmits one payload of payloadBytes, no earlier than earliest.
// It returns the depart time (transmission start, after serialization
// behind the previous send and any flow-control stall) and the arrive time
// (last byte landed on the standby). The send joins the un-acked window;
// the caller must eventually Ack it in FIFO order.
func (l *Link) Send(payloadBytes int, earliest simclock.Time) (depart, arrive simclock.Time) {
	depart = earliest
	if l.busyUntil > depart {
		depart = l.busyUntil
	}
	// Flow control: wait for acks of the oldest outstanding sends until
	// the window admits this payload. Acks are recorded eagerly (the
	// replicator computes the standby's apply time synchronously), so the
	// stall resolves by popping FIFO entries whose ack time we move past.
	if l.windowBytes > 0 {
		stallFrom := depart
		for l.inFlight > 0 && l.inFlight+payloadBytes > l.windowBytes {
			head := l.outstanding[0]
			if head.ackArrive == 0 {
				// Ack not yet computed — the caller acks strictly
				// in send order, so this cannot happen in the
				// synchronous protocol; treat as window-open.
				break
			}
			if head.ackArrive > depart {
				depart = head.ackArrive
			}
			l.outstanding = l.outstanding[1:]
			l.inFlight -= head.payload
		}
		if depart > stallFrom {
			l.Stats.Stalls++
			l.Stats.StallTime += depart.Sub(stallFrom)
		}
	}
	wire := WireBytes(payloadBytes)
	serialize := simclock.Duration(wire) * l.model.NetWireByte
	l.busyUntil = depart.Add(serialize)
	arrive = l.busyUntil.Add(l.model.NetPropagation)
	l.outstanding = append(l.outstanding, linkSend{payload: payloadBytes})
	l.inFlight += payloadBytes
	segs := (payloadBytes + LinkMTU - 1) / LinkMTU
	if segs == 0 {
		segs = 1
	}
	l.Stats.FramesSent += uint64(segs)
	l.Stats.BytesSent += uint64(wire)
	return depart, arrive
}

// Ack records the ack arrival time of the oldest un-acked send that has no
// ack yet. Acked entries leave the window lazily, when a later Send needs
// the room (or immediately if the window was the only thing keeping them).
func (l *Link) Ack(ackArrive simclock.Time) {
	for i := range l.outstanding {
		if l.outstanding[i].ackArrive == 0 {
			l.outstanding[i].ackArrive = ackArrive
			l.Stats.Acks++
			return
		}
	}
}

// AckWire returns the one-way flight time of an ack frame.
func (l *Link) AckWire() simclock.Duration {
	return l.model.NetPropagation + simclock.Duration(AckBytes)*l.model.NetWireByte
}

// InFlight returns the un-acked payload bytes currently charged against the
// window.
func (l *Link) InFlight() int { return l.inFlight }
