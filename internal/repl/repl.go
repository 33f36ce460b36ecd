// Package repl replicates committed checkpoints to a hot standby over the
// simulated network, extending TreeSLS's whole-system persistence across
// machines: after every local checkpoint commit, the primary brings its
// retained replication image (stable-ID-addressed object records and backup
// pages) up to date in place, which yields the round's delta, and streams
// the delta over a flow-controlled point-to-point link; the standby applies
// the delta into its own folded image and acknowledges once durable. A
// periodic full-tree sync bootstraps a fresh standby or heals a lagging one.
// Failover builds a standby machine from the acknowledged delta log,
// installs the folded image as a committed checkpoint, and restores it — by
// construction its audit digest equals the primary's last *acknowledged*
// checkpoint.
//
// Durability modes (the ReplMode knob):
//
//   - local:  external synchrony as in §5 — gated responses release at the
//     covering local commit. Replication is asynchronous best-effort; a
//     primary loss can lose the tail of commits that never reached the
//     standby, including ones whose responses already released.
//   - remote: the external-synchrony release condition extends across the
//     link — a gated response releases only after its covering commit is
//     BOTH locally persistent and standby-acknowledged, so even losing the
//     whole primary machine cannot un-happen an externally visible
//     response.
//
// Everything is deterministic simulated time: the delta stream, the link
// schedule, the ack instants, and the failover digest are pure functions of
// the workload and seed.
package repl

import (
	"fmt"

	"treesls/internal/checkpoint"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/net"
	"treesls/internal/obs"
	"treesls/internal/obs/audit"
	"treesls/internal/simclock"
)

// Mode selects the durability contract for externally visible responses.
type Mode int

const (
	// ModeLocal releases gated responses at the covering local commit
	// (asynchronous replication; the standby trails best-effort).
	ModeLocal Mode = iota
	// ModeRemote releases gated responses only after the covering commit
	// is standby-acknowledged.
	ModeRemote
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeRemote {
		return "remote"
	}
	return "local"
}

// ParseMode parses "local" or "remote".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "local":
		return ModeLocal, nil
	case "remote":
		return ModeRemote, nil
	default:
		return ModeLocal, fmt.Errorf("repl: unknown mode %q (want local or remote)", s)
	}
}

// Config tunes the replicator.
type Config struct {
	// Mode is the durability contract (see Mode).
	Mode Mode
	// FullSyncEvery sends a full-tree sync every N checkpoints (the
	// bootstrap/heal path); the first delta is always a full sync.
	// Default 16.
	FullSyncEvery uint64
}

func (c *Config) fill() {
	if c.FullSyncEvery == 0 {
		c.FullSyncEvery = 16
	}
}

// LedgerEntry records one replicated checkpoint round.
type LedgerEntry struct {
	// Version is the replicated checkpoint version.
	Version uint64
	// Full marks a full-tree sync.
	Full bool
	// Bytes is the delta's wire payload size.
	Bytes int
	// Depart/Arrive bracket the delta's flight on the link.
	Depart, Arrive simclock.Time
	// AckArrive is when the standby's ack reached the primary.
	AckArrive simclock.Time
	// Digest is the primary's backup-tree audit digest at this version —
	// what a failover to this version must reproduce.
	Digest uint64
	// Delta is the retained delta (fold input for failover). Its Puts'
	// Data stays valid while the ledger retains the entry: once gc drops
	// the entry, the replication image may refill those buffers. Fold it
	// and drop the result before the next checkpoint, as FailoverAt does.
	Delta *checkpoint.Delta
}

// ReleaseRecord is one deferred external-synchrony release performed by the
// ack pump (the oracle for the remote-mode acceptance criterion).
type ReleaseRecord struct {
	// Version is the covering commit that was released.
	Version uint64
	// At is the simulated time of the release.
	At simclock.Time
	// AckArrive is when that commit's standby ack arrived.
	AckArrive simclock.Time
}

// Stats counts replication activity.
type Stats struct {
	Deltas     uint64
	FullSyncs  uint64
	BytesSent  uint64
	Acks       uint64
	Failovers  uint64
	GCedDeltas uint64
}

// Replicator streams checkpoint deltas from a primary machine to a (lazily
// materialized) standby. It registers as a checkpoint callback on the
// primary and, in remote mode, as a machine pump that releases deferred
// responses when acks land.
type Replicator struct {
	cfg     Config
	primary *kernel.Machine
	driver  *extsync.Driver // nil when the machine has no gated network
	link    *net.Link

	// standbyLane models the standby's apply core: it advances to each
	// delta's arrival and is charged the apply cost, making the ack time
	// a function of both wire and apply work.
	standbyLane simclock.Lane

	// image is the replication image of the newest shipped round (what the
	// standby holds once it applies that delta), updated in place by each
	// round's capture; nil makes the next round a full sync.
	image  *checkpoint.ReplImage
	ledger []LedgerEntry
	// releasedTo is the highest version the ack pump has released
	// (remote mode).
	releasedTo uint64

	// Released logs every deferred release for the external-synchrony
	// oracle.
	Released []ReleaseRecord

	Stats Stats

	ob          *obs.Observer
	mBytes      *obs.Counter
	mDeltas     *obs.Counter
	mFullSyncs  *obs.Counter
	mAcks       *obs.Counter
	mLag        *obs.Histogram
	mReplBytes  *obs.Histogram
	mLinkStalls *obs.Counter
}

// standbyLaneID is the trace thread-id of the standby apply lane (picked
// clear of real core lanes).
const standbyLaneID = 96

// replWindow bounds un-acked delta payload on the replication link (flow
// control): a send that would overrun it waits for earlier acks.
const replWindow = 256 << 10

// Attach wires a replicator to a primary machine. driver may be nil (no
// gated network); in remote mode a non-nil driver is switched to deferred
// release and an ack pump is registered on the machine.
func Attach(m *kernel.Machine, driver *extsync.Driver, cfg Config) *Replicator {
	cfg.fill()
	r := &Replicator{
		cfg:     cfg,
		primary: m,
		driver:  driver,
		link:    net.NewLink(m.Model, replWindow),
		ob:      m.Obs,
	}
	r.standbyLane.SetID(standbyLaneID)
	if r.ob.MetricsOn() {
		reg := r.ob.Metrics
		r.mBytes = reg.Counter("repl.bytes_sent")
		r.mDeltas = reg.Counter("repl.deltas")
		r.mFullSyncs = reg.Counter("repl.full_syncs")
		r.mAcks = reg.Counter("repl.acks")
		r.mLag = reg.Histogram("repl.lag_ns", nil)
		r.mReplBytes = reg.Histogram("repl.delta_bytes", nil)
		r.mLinkStalls = reg.Counter("repl.link_stalls")
	}
	if cfg.Mode == ModeRemote && driver != nil {
		driver.SetDeferred(true)
	}
	m.Ckpt.Register(r)
	m.RegisterPump(r.pump)
	return r
}

// Config returns the replicator configuration.
func (r *Replicator) Config() Config { return r.cfg }

// Link exposes the replication link (stats, window state).
func (r *Replicator) Link() *net.Link { return r.link }

// Ledger returns the replicated-round records (oldest retained first).
func (r *Replicator) Ledger() []LedgerEntry { return r.ledger }

// OnCheckpoint implements checkpoint.Callback: capture the delta, ship, ack.
// It runs on the checkpoint leader lane immediately after the local commit
// (and after the extsync driver's own callback, which in remote mode only
// records the covered ring prefix).
func (r *Replicator) OnCheckpoint(version uint64, lane *simclock.Lane) {
	model := r.primary.Model
	full := r.image == nil ||
		(r.cfg.FullSyncEvery > 0 && version%r.cfg.FullSyncEvery == 0)
	if r.image == nil {
		r.image = &checkpoint.ReplImage{}
	}
	delta := r.primary.Ckpt.CaptureReplDelta(r.image, full)
	payload := delta.PayloadBytes()

	// Extraction cost on the primary: reading each shipped page out of
	// NVM, summing each shipped record, a radix visit per tombstone, and
	// the TX doorbell.
	var cost simclock.Duration
	for _, p := range delta.Puts {
		if p.Key.Kind == checkpoint.ReplObject {
			cost += model.ChecksumRecord
		} else {
			cost += model.NVMReadPage
		}
	}
	cost += simclock.Duration(len(delta.Dels)) * model.RadixVisit
	cost += model.NetTxPacket
	lane.Charge(cost)

	stallsBefore := r.link.Stats.Stalls
	depart, arrive := r.link.Send(payload, lane.Now())

	// Standby apply: the lane rides to the arrival, writes the shipped
	// pages, sums the records, commits.
	if arrive > r.standbyLane.Now() {
		r.standbyLane.AdvanceTo(arrive)
	}
	var apply simclock.Duration
	for _, p := range delta.Puts {
		if p.Key.Kind == checkpoint.ReplObject {
			apply += model.ChecksumRecord
		} else {
			apply += model.NVMWritePage
		}
	}
	apply += simclock.Duration(len(delta.Dels))*model.RadixVisit + model.CommitCheckpoint
	r.standbyLane.Charge(apply)
	ackArrive := r.standbyLane.Now().Add(r.link.AckWire())
	r.link.Ack(ackArrive)

	digest := audit.BackupDigest(r.primary.Ckpt, r.primary.Memory)
	r.ledger = append(r.ledger, LedgerEntry{
		Version:   version,
		Full:      full,
		Bytes:     payload,
		Depart:    depart,
		Arrive:    arrive,
		AckArrive: ackArrive,
		Digest:    digest,
		Delta:     delta,
	})
	r.gc()

	r.Stats.Deltas++
	r.Stats.BytesSent += uint64(payload)
	r.Stats.Acks++
	if full {
		r.Stats.FullSyncs++
	}
	if r.ob.MetricsOn() {
		r.mDeltas.Inc()
		r.mAcks.Inc()
		r.mBytes.Add(uint64(payload))
		r.mReplBytes.Observe(int64(payload))
		r.mLag.ObserveDur(ackArrive.Sub(lane.Now()))
		if full {
			r.mFullSyncs.Inc()
		}
		r.mLinkStalls.Add(r.link.Stats.Stalls - stallsBefore)
	}
	if r.ob.TraceOn() {
		r.ob.Trace.Span(lane.ID(), depart, arrive, "repl", "repl-delta",
			obs.I("version", int64(version)),
			obs.I("bytes", int64(payload)),
			obs.I("puts", int64(len(delta.Puts))),
			obs.I("dels", int64(len(delta.Dels))),
			obs.I("full", b2i(full)))
		r.ob.Trace.Instant(standbyLaneID, ackArrive, "repl", "repl-ack",
			obs.I("version", int64(version)))
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// OnRestore implements checkpoint.Callback: after a local restore the
// primary's state rolled back to `version`, so the next delta must be a
// full sync (the standby may hold rounds the restored primary never took).
// Dropping the image also drops the buffers it retired, which the ledger
// entries the truncation keeps may still share.
func (r *Replicator) OnRestore(version uint64, lane *simclock.Lane) {
	r.image = nil
	// Every replicated version was locally committed first, so a restore
	// can never roll below an acked version; the truncation is a safety
	// net for degraded restores.
	for len(r.ledger) > 0 && r.ledger[len(r.ledger)-1].Version > version {
		r.ledger = r.ledger[:len(r.ledger)-1]
	}
	if r.releasedTo > version {
		r.releasedTo = version
	}
}

// gc drops ledger entries from generations before the previous full sync:
// failover only ever folds from the newest full sync at or below its
// target, and the previous generation is kept so a target between the
// latest full sync's send and its ack still has a fold base. The image may
// then reuse the page buffers only dropped entries shared.
func (r *Replicator) gc() {
	lastFull, prevFull := -1, -1
	for i, e := range r.ledger {
		if e.Full {
			prevFull = lastFull
			lastFull = i
		}
	}
	if prevFull > 0 {
		r.Stats.GCedDeltas += uint64(prevFull)
		r.ledger = append(r.ledger[:0:0], r.ledger[prevFull:]...)
	}
	r.image.Recycle(r.ledger[0].Version)
}

// LastAckAt returns the arrival time of the newest round's ack (zero when
// nothing was replicated yet). Settling the machine past it guarantees
// AckedVersion(Now) equals the latest committed version.
func (r *Replicator) LastAckAt() simclock.Time {
	if len(r.ledger) == 0 {
		return 0
	}
	return r.ledger[len(r.ledger)-1].AckArrive
}

// AckedVersion returns the highest checkpoint version whose standby ack had
// arrived by time t (0 if none).
func (r *Replicator) AckedVersion(t simclock.Time) uint64 {
	for i := len(r.ledger) - 1; i >= 0; i-- {
		if r.ledger[i].AckArrive <= t {
			return r.ledger[i].Version
		}
	}
	return 0
}

// entry returns the ledger entry for version v, or nil.
func (r *Replicator) entry(v uint64) *LedgerEntry {
	for i := range r.ledger {
		if r.ledger[i].Version == v {
			return &r.ledger[i]
		}
	}
	return nil
}

// pump is the machine pump: in remote mode it releases deferred gated
// responses for every newly acked version, advancing the leader lane to the
// ack instant first so the release timestamps sit at (or after) the ack.
func (r *Replicator) pump(t simclock.Time) {
	if r.cfg.Mode != ModeRemote || r.driver == nil {
		return
	}
	for i := range r.ledger {
		e := &r.ledger[i]
		if e.Version <= r.releasedTo || e.AckArrive > t {
			continue
		}
		lane := r.leaderLane()
		if e.AckArrive > lane.Now() {
			lane.AdvanceTo(e.AckArrive)
		}
		r.driver.ReleaseUpTo(e.Version, lane)
		r.releasedTo = e.Version
		r.Released = append(r.Released, ReleaseRecord{
			Version:   e.Version,
			At:        lane.Now(),
			AckArrive: e.AckArrive,
		})
		if r.ob.TraceOn() {
			r.ob.Trace.Instant(lane.ID(), lane.Now(), "repl", "repl-release",
				obs.I("version", int64(e.Version)))
		}
	}
}

func (r *Replicator) leaderLane() *simclock.Lane {
	return &r.primary.Cores[0].Lane
}

// Failover is the result of promoting the standby.
type Failover struct {
	// Machine is the promoted standby, restored and running.
	Machine *kernel.Machine
	// Version is the checkpoint version the standby came up at — the
	// primary's last acknowledged checkpoint as of the failover instant.
	Version uint64
	// Digest is the standby's backup-tree audit digest after restore.
	Digest uint64
	// ExpectedDigest is the primary's ledger digest for Version.
	ExpectedDigest uint64
	// FoldedDeltas counts the log entries folded into the image.
	FoldedDeltas int
}

// FailoverAt promotes the standby as of time t: the primary is presumed
// lost, so the recoverable state is exactly the last checkpoint whose ack
// had arrived by t. A fresh standby machine is booted, the acknowledged
// delta log is folded from the newest full sync at or below the target, the
// image is installed as a committed checkpoint, and the machine goes
// through the ordinary crash/restore path. Each call builds a new machine
// from scratch, so a crash *during* failover (injected by the fuzz harness)
// is retried by simply calling FailoverAt again.
func (r *Replicator) FailoverAt(t simclock.Time) (*Failover, error) {
	target := r.AckedVersion(t)
	if target == 0 {
		return nil, fmt.Errorf("repl: no acknowledged checkpoint as of t=%d", t)
	}
	e := r.entry(target)
	if e == nil {
		return nil, fmt.Errorf("repl: ledger entry for version %d vanished", target)
	}
	// Fold from the newest full sync at or below the target.
	base := -1
	for i := range r.ledger {
		if r.ledger[i].Full && r.ledger[i].Version <= target {
			base = i
		}
	}
	if base < 0 {
		return nil, fmt.Errorf("repl: no full sync at or below version %d in the retained log", target)
	}
	var img *checkpoint.ReplImage
	folded := 0
	for i := base; i < len(r.ledger) && r.ledger[i].Version <= target; i++ {
		img = checkpoint.FoldDelta(img, r.ledger[i].Delta)
		folded++
	}
	cfg := r.primary.Config()
	sb := kernel.NewStandby(cfg)
	lane := &sb.Cores[0].Lane
	if t > lane.Now() {
		lane.AdvanceTo(t)
	}
	if err := sb.Ckpt.InstallImage(lane, img); err != nil {
		return nil, fmt.Errorf("repl: installing image at v%d: %w", target, err)
	}
	// Promote through the ordinary power-fail path: everything volatile
	// is dropped and the machine comes back from the installed commit —
	// the same code restore correctness already proves.
	sb.Crash()
	if err := sb.Restore(); err != nil {
		return nil, fmt.Errorf("repl: restoring standby at v%d: %w", target, err)
	}
	r.Stats.Failovers++
	digest := audit.BackupDigest(sb.Ckpt, sb.Memory)
	return &Failover{
		Machine:        sb,
		Version:        target,
		Digest:         digest,
		ExpectedDigest: e.Digest,
		FoldedDeltas:   folded,
	}, nil
}
