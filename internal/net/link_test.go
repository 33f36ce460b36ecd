package net

import (
	"testing"

	"treesls/internal/simclock"
)

func TestWireBytesSegmentation(t *testing.T) {
	cases := []struct {
		payload, want int
	}{
		{0, FrameHeader},
		{1, 1 + FrameHeader},
		{LinkMTU, LinkMTU + FrameHeader},
		{LinkMTU + 1, LinkMTU + 1 + 2*FrameHeader},
		{3 * LinkMTU, 3*LinkMTU + 3*FrameHeader},
	}
	for _, c := range cases {
		if got := WireBytes(c.payload); got != c.want {
			t.Fatalf("WireBytes(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestLinkSerialization(t *testing.T) {
	model := simclock.DefaultCostModel()
	l := NewLink(model, 0)
	d1, a1 := l.Send(100, 0)
	if d1 != 0 {
		t.Fatalf("first send departs at %d, want 0", d1)
	}
	wantA1 := simclock.Time(0).Add(simclock.Duration(WireBytes(100))*model.NetWireByte + model.NetPropagation)
	if a1 != wantA1 {
		t.Fatalf("first send arrives at %d, want %d", a1, wantA1)
	}
	// A second send at an earlier "earliest" still serializes behind the
	// first transmission.
	d2, _ := l.Send(50, 0)
	if d2 != simclock.Time(0).Add(simclock.Duration(WireBytes(100))*model.NetWireByte) {
		t.Fatalf("second send departs at %d, not serialized behind the first", d2)
	}
	if l.Stats.FramesSent != 2 || l.Stats.BytesSent != uint64(WireBytes(100)+WireBytes(50)) {
		t.Fatalf("stats: %+v", l.Stats)
	}
}

func TestLinkWindowStall(t *testing.T) {
	model := simclock.DefaultCostModel()
	l := NewLink(model, 1000)
	_, a1 := l.Send(900, 0)
	ack := a1.Add(10 * simclock.Microsecond)
	l.Ack(ack)
	if l.InFlight() != 900 {
		t.Fatalf("in flight %d before the window forces the pop", l.InFlight())
	}
	// 900 + 900 > 1000: the second send must stall until the first ack.
	d2, _ := l.Send(900, 0)
	if d2 != ack {
		t.Fatalf("stalled send departs at %d, want the ack time %d", d2, ack)
	}
	if l.Stats.Stalls != 1 || l.Stats.StallTime == 0 {
		t.Fatalf("stall stats: %+v", l.Stats)
	}
	if l.InFlight() != 900 {
		t.Fatalf("in flight %d after pop+send, want 900", l.InFlight())
	}
}

func TestLinkAckFIFO(t *testing.T) {
	l := NewLink(nil, 0)
	l.Send(10, 0)
	l.Send(10, 0)
	l.Ack(100)
	l.Ack(200)
	if l.Stats.Acks != 2 {
		t.Fatalf("acks %d, want 2", l.Stats.Acks)
	}
	if l.outstanding[0].ackArrive != 100 || l.outstanding[1].ackArrive != 200 {
		t.Fatalf("ack order wrong: %+v", l.outstanding)
	}
	// Extra acks with nothing outstanding are ignored.
	l.Ack(300)
	if l.Stats.Acks != 2 {
		t.Fatalf("spurious ack counted")
	}
}
