package net

import (
	"encoding/binary"
	"fmt"

	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// clientKey is one key's closed-loop request stream. Request i (1-based)
// writes the key's counter to i; the response echoes that value, so an
// acknowledgement for request i certifies the server durably holds (or held)
// counter >= i once released through the gate.
type clientKey struct {
	key        []byte
	sent       uint64 // highest request index put on the wire
	acked      uint64 // highest contiguously acknowledged request index
	nextSendAt simclock.Time
}

// Clients is the closed-loop client model every fleet shares: the per-key
// request cursors, the per-client pipeline window over consecutive keys,
// the in-order receipt rule and the external-synchrony safety oracle. A
// fleet embeds it and adds only transport: where a request goes and who
// serves it. Key j travels as wire connection j.
type Clients struct {
	keys      []clientKey
	perClient int    // consecutive keys sharing one client's window
	requests  uint64 // per-key request budget; 0 means unbounded
	window    uint64 // per-client pipeline depth
	valBytes  int
	think     simclock.Duration
	val       []byte // Value's buffer

	// OnAck, when set, observes every in-order acknowledgement (scenario
	// digests hang off this).
	OnAck func(conn int, req uint64, recv simclock.Time)

	// Latencies collects client-observed latency per acknowledgement, in
	// acknowledgement order.
	Latencies []simclock.Duration
	// Violations records client-visible ordering violations (a response
	// for request i arriving before i-1 was acknowledged) and, in a
	// routed fleet, receipts from the wrong server. Must stay empty: the
	// per-key FIFO property.
	Violations []string
	// Retransmits counts requests re-sent after a crash dropped their
	// frame or their un-released response.
	Retransmits uint64
	// DupAcks counts responses for already-acknowledged requests (never
	// produced by the gated path; a diagnostic for harness bugs).
	DupAcks uint64
}

// NewClients builds the model for len(keys)/perClient clients, each owning
// perClient consecutive keys and at most window un-acknowledged requests
// across them. requests is the per-key budget (0 = unbounded), valueBytes
// the SET value size, and think the pause between an acknowledgement and
// the next send it unblocks on that key.
func NewClients(keys [][]byte, perClient, requests, window, valueBytes int, think simclock.Duration) Clients {
	c := Clients{
		keys:      make([]clientKey, len(keys)),
		perClient: perClient,
		requests:  uint64(requests),
		window:    uint64(window),
		valBytes:  valueBytes,
		think:     think,
	}
	for j, k := range keys {
		c.keys[j].key = k
	}
	return c
}

// Keys returns how many keys the clients drive.
func (c *Clients) Keys() int { return len(c.keys) }

// Key returns key j's bytes.
func (c *Clients) Key(j int) []byte { return c.keys[j].key }

// Acked returns key j's highest contiguously acknowledged request index.
func (c *Clients) Acked(j int) uint64 { return c.keys[j].acked }

// TotalAcked sums acknowledged requests across all keys.
func (c *Clients) TotalAcked() uint64 {
	var t uint64
	for i := range c.keys {
		t += c.keys[i].acked
	}
	return t
}

// Outstanding sums sent-but-unacknowledged requests across all keys.
func (c *Clients) Outstanding() uint64 {
	var o uint64
	for i := range c.keys {
		o += c.keys[i].sent - c.keys[i].acked
	}
	return o
}

// Done reports whether every key has its whole budget acknowledged (never,
// when the budget is unbounded).
func (c *Clients) Done() bool {
	if c.requests == 0 {
		return false
	}
	for i := range c.keys {
		if c.keys[i].acked < c.requests {
			return false
		}
	}
	return true
}

// Value builds request req's value on key j: the 8-byte big-endian request
// index padded with a key-seasoned pattern to the configured size. It
// returns the clients' one value buffer, which the next call overwrites;
// the servers' SET paths copy the value into simulated memory.
func (c *Clients) Value(j int, req uint64) []byte {
	if len(c.val) != c.valBytes {
		c.val = make([]byte, c.valBytes)
	}
	v := c.val
	binary.BigEndian.PutUint64(v, req)
	for i := 8; i < len(v); i++ {
		v[i] = byte(j + i)
	}
	return v
}

// CounterValue parses the per-key counter out of a stored value.
func CounterValue(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// NextSender picks the earliest-eligible key — budget left, its client's
// window open — and the time it sends. Ties go to the lowest key index:
// that order is the schedule.
func (c *Clients) NextSender() (int, simclock.Time, bool) {
	best, at := -1, simclock.Time(0)
	for lo := 0; lo < len(c.keys); lo += c.perClient {
		client := c.keys[lo : lo+c.perClient]
		var out uint64
		for i := range client {
			out += client[i].sent - client[i].acked
		}
		if out >= c.window {
			continue
		}
		for i := range client {
			k := &client[i]
			if c.requests > 0 && k.sent >= c.requests {
				continue
			}
			if best < 0 || k.nextSendAt < at {
				best, at = lo+i, k.nextSendAt
			}
		}
	}
	return best, at, best >= 0
}

// Send puts key j's next request on the wire and returns its index.
func (c *Clients) Send(j int) uint64 {
	c.keys[j].sent++
	return c.keys[j].sent
}

// Receive is the in-order receipt rule: the next response on a key advances
// it (and its client's window), a stale one counts as a duplicate, and a
// gap is a FIFO violation.
func (c *Clients) Receive(r Receipt) {
	k := &c.keys[r.Conn]
	switch {
	case r.Req == k.acked+1:
		k.acked++
		c.Latencies = append(c.Latencies, r.Receive.Sub(r.Submit))
		if t := r.Receive.Add(c.think); t > k.nextSendAt {
			k.nextSendAt = t
		}
		if c.OnAck != nil {
			c.OnAck(r.Conn, r.Req, r.Receive)
		}
	case r.Req <= k.acked:
		c.DupAcks++
	default:
		c.Violations = append(c.Violations,
			fmt.Sprintf("key %d: response for request %d arrived with only %d acknowledged", r.Conn, r.Req, k.acked))
	}
}

// Rewind realigns key j with a server that lost its queued frames and
// unreleased responses: the send cursor falls back to the last acknowledged
// request, which is retransmitted from rto on. Retransmitted SETs are
// idempotent absolute writes, so replay is safe.
func (c *Clients) Rewind(j int, rto simclock.Time) {
	k := &c.keys[j]
	c.Retransmits += k.sent - k.acked
	k.sent = k.acked
	if rto > k.nextSendAt {
		k.nextSendAt = rto
	}
}

// Unjustified checks the external-synchrony invariant against recovered
// state: no key's highest acknowledged request may exceed the counter the
// state holds, as counter(j) reads it. An acknowledged-but-unpersisted
// response is exactly the output commit the gate exists to prevent. Returns
// one description per violated key.
func (c *Clients) Unjustified(counter func(j int) (uint64, error)) ([]string, error) {
	var bad []string
	for j := range c.keys {
		held, err := counter(j)
		if err != nil {
			return nil, err
		}
		if acked := c.keys[j].acked; acked > held {
			bad = append(bad, fmt.Sprintf(
				"key %d: client holds an acknowledgement for request %d but restored state justifies only %d",
				j, acked, held))
		}
	}
	return bad, nil
}

// PinThreads pins server process name's worker threads round-robin to m's
// cores, so request steering stays deterministic under load. Idempotent;
// fleets re-apply it after a restore (the snapshot preserves affinity; this
// keeps them independent of that detail).
func PinThreads(m *kernel.Machine, name string) {
	p := m.Process(name)
	if p == nil {
		return
	}
	for i, th := range p.Threads {
		th.Sched.Affinity = i % len(m.Cores)
	}
}
