package net

// The cluster control-plane fabric: point-to-point links between the
// coordinator and every shard, built on the same Link primitive (and wire
// cost model) as the replication pipe. The fabric carries the consistent-cut
// protocol's two control messages — a shard's checkpoint-prepare report
// upstream and the coordinator's cut announcement downstream — so the cut
// protocol pays realistic serialization and propagation latency instead of
// being free coordination.

import "treesls/internal/simclock"

// RouteHeaderBytes is the router's encapsulation overhead on every routed
// client frame: the key's ring hash (8), the owning shard (2), the cluster
// epoch floor the client has observed (8) and a route check (2). The cluster
// fleet charges it on top of the ordinary FrameHeader for each request and
// response crossing the router.
const RouteHeaderBytes = 20

// ReportBytes is the wire payload of one prepare report: shard id, prepared
// version, and the shard's backup-tree audit digest (8 bytes each).
const ReportBytes = 24

// AnnounceBase and AnnouncePerShard size a cut announcement: epoch, cluster
// digest and timestamp, plus each shard's (version, digest) pair.
const (
	AnnounceBase     = 24
	AnnouncePerShard = 16
)

// FabricStats counts control-plane activity.
type FabricStats struct {
	Reports   uint64
	Announces uint64
	Migrates  uint64
	Bytes     uint64
}

// Fabric is the coordinator↔shard control-plane link set: one full-duplex
// link pair per shard, plus lazily created shard-to-shard mesh links that
// carry migration traffic during an elastic reshard. Purely deterministic
// arithmetic over simulated time, like the Link it is built on.
type Fabric struct {
	up   []*Link // shard i -> coordinator
	down []*Link // coordinator -> shard i
	mesh map[[2]int]*Link

	model *simclock.CostModel

	Stats FabricStats
}

// fabricWindow bounds un-acked control payload per link. Control frames are
// tiny, so the window exists for Link hygiene (it keeps the outstanding list
// draining), not for back-pressure.
const fabricWindow = 64 << 10

// NewFabric creates the control plane for `shards` shards over the given
// cost model (nil = default).
func NewFabric(model *simclock.CostModel, shards int) *Fabric {
	f := &Fabric{model: model}
	for i := 0; i < shards; i++ {
		f.AddEndpoint()
	}
	return f
}

// AddEndpoint grows the fabric by one shard endpoint (a joining shard's
// full-duplex coordinator link pair) and returns the new shard index.
func (f *Fabric) AddEndpoint() int {
	f.up = append(f.up, NewLink(f.model, fabricWindow))
	f.down = append(f.down, NewLink(f.model, fabricWindow))
	return len(f.up) - 1
}

// SendReport ships shard i's prepare report to the coordinator, no earlier
// than `earliest`, and returns when it arrives. The transport ack is
// recorded immediately (control frames are fire-and-forget at this layer;
// loss is modelled as a crash, not a drop).
func (f *Fabric) SendReport(shard int, earliest simclock.Time) simclock.Time {
	return f.send(f.up[shard], ReportBytes, earliest, &f.Stats.Reports)
}

// SendAnnounce ships the announced cut to shard i and returns when it
// arrives. Payload grows with the cluster size: every shard's (version,
// digest) pair rides along so a shard can verify its own slice.
func (f *Fabric) SendAnnounce(shard, shards int, earliest simclock.Time) simclock.Time {
	payload := AnnounceBase + shards*AnnouncePerShard
	return f.send(f.down[shard], payload, earliest, &f.Stats.Announces)
}

// SendMigrate ships `payload` bytes of migration traffic (a moved-key delta
// batch, or a dual-routed in-flight request) from shard src to shard dst and
// returns when it arrives. Mesh links are created on first use, so only
// pairs that actually migrate pay for a link.
func (f *Fabric) SendMigrate(src, dst, payload int, earliest simclock.Time) simclock.Time {
	if src == dst {
		panic("net: migration frame to self")
	}
	if f.mesh == nil {
		f.mesh = make(map[[2]int]*Link)
	}
	l, ok := f.mesh[[2]int{src, dst}]
	if !ok {
		l = NewLink(f.model, fabricWindow)
		f.mesh[[2]int{src, dst}] = l
	}
	return f.send(l, payload, earliest, &f.Stats.Migrates)
}

func (f *Fabric) send(l *Link, payload int, earliest simclock.Time, counter *uint64) simclock.Time {
	_, arrive := l.Send(payload, earliest)
	l.Ack(arrive.Add(l.AckWire()))
	*counter++
	f.Stats.Bytes += uint64(WireBytes(payload))
	return arrive
}
