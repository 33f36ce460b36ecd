// Package wal implements the write-ahead-log persistence the paper's
// baselines use: Redis's append-only file (Linux-WAL, Figure 13) and
// RocksDB's WAL (Aurora-base-WAL, Figure 14). Every externally-acknowledged
// write appends a record to the log *on the critical path* — the double
// write (application data + log) that §7.5 identifies as the cost TreeSLS
// eliminates.
package wal

import (
	"treesls/internal/baseline/disk"
	"treesls/internal/simclock"
)

// Stats counts log activity.
type Stats struct {
	Records uint64
	Bytes   uint64
	Syncs   uint64
}

// Log is a write-ahead log on a storage device.
type Log struct {
	dev *disk.Device
	// GroupCommit batches this many records per sync (1 = sync every
	// record, the strict Redis "appendfsync always" / RocksDB default
	// WAL-sync behaviour).
	GroupCommit int

	pendingRecords int
	pendingBytes   int

	Stats Stats
}

// New creates a log on dev with per-record syncing.
func New(dev *disk.Device) *Log {
	return &Log{dev: dev, GroupCommit: 1}
}

// Append writes one record of n payload bytes (plus a 24-byte header) and
// syncs according to the group-commit setting, charging the caller's lane —
// this is the critical-path cost.
func (l *Log) Append(lane *simclock.Lane, n int) {
	rec := n + 24
	l.Stats.Records++
	l.Stats.Bytes += uint64(rec)
	l.pendingRecords++
	l.pendingBytes += rec
	if l.pendingRecords >= l.GroupCommit {
		l.dev.WriteSync(lane, l.pendingBytes)
		l.Stats.Syncs++
		l.pendingRecords, l.pendingBytes = 0, 0
	}
}

// Flush forces out any batched records.
func (l *Log) Flush(lane *simclock.Lane) {
	if l.pendingBytes > 0 {
		l.dev.WriteSync(lane, l.pendingBytes)
		l.Stats.Syncs++
		l.pendingRecords, l.pendingBytes = 0, 0
	}
}
