// Package lsm implements the RocksDB stand-in of §7.5.2: a key-value store
// with an in-memory memtable, an optional write-ahead log, and optional
// memtable flushes to a storage device.
//
// The configurations of Figure 14 map onto it directly:
//
//   - TreeSLS-{base,5ms,1ms}: a large memtable in (simulated) NVM, no WAL,
//     no flushing — persistence comes from whole-system checkpointing. The
//     paper: "NVM's large capacity makes it possible to hold a large
//     Memtable in memory and use high-frequency checkpointing for
//     persistence."
//   - Aurora-base-WAL / Linux-WAL: every Put appends a WAL record on the
//     critical path (the double write TreeSLS eliminates).
//   - Two-tier configurations flush the memtable to a device when it
//     exceeds its limit; a writer that catches the device still busy stalls,
//     which is where the long P99 tail of log-structured stores comes from.
package lsm

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/apps/uheap"
	"treesls/internal/baseline/disk"
	"treesls/internal/baseline/wal"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// Config describes a database instance.
type Config struct {
	// Name is the process name.
	Name string
	// Threads is the worker thread count.
	Threads int
	// HeapPages sizes the memtable heap.
	HeapPages uint64
	// Buckets is the memtable index size.
	Buckets uint64
	// WAL, when set, is appended to synchronously on every Put.
	WAL *wal.Log
	// JournalAppend, when set, is called on every Put with the record
	// size — the Aurora journaling-API configuration (the application is
	// modified to persist through the SLS's opt-in API).
	JournalAppend func(lane *simclock.Lane, bytes int)
	// FlushDev, when set, receives memtable flushes once the memtable
	// exceeds MemtableLimit bytes.
	FlushDev *disk.Device
	// MemtableLimit triggers flushes (bytes); 0 = never flush.
	MemtableLimit int
	// PerOpCompute models per-request CPU work.
	PerOpCompute simclock.Duration
}

// Stats counts database activity.
type Stats struct {
	Puts, Gets, Flushes uint64
	StallTime           simclock.Duration
}

// DB is a database handle; like the KV server it is restore-safe.
type DB struct {
	m   *kernel.Machine
	cfg Config

	heapBase, heapLimit uint64
	headerVA            uint64

	bytesSinceFlush int

	Stats Stats
}

// Open creates the database process and its memtable.
func Open(m *kernel.Machine, cfg Config) (*DB, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 4096
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 4096
	}
	p, err := m.NewProcess(cfg.Name, cfg.Threads)
	if err != nil {
		return nil, err
	}
	db := &DB{m: m, cfg: cfg}
	_, err = m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		heap, err := uheap.New(e, cfg.HeapPages)
		if err != nil {
			return err
		}
		st, err := kvstore.Create(e, heap, cfg.Buckets)
		if err != nil {
			return err
		}
		db.heapBase, db.heapLimit = heap.Base, heap.Limit
		db.headerVA = st.HeaderVA
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lsm: opening %s: %w", cfg.Name, err)
	}
	return db, nil
}

func (db *DB) proc() (*kernel.Process, error) {
	p := db.m.Process(db.cfg.Name)
	if p == nil {
		return nil, fmt.Errorf("lsm: process %q not found", db.cfg.Name)
	}
	return p, nil
}

func (db *DB) store() *kvstore.Store {
	return kvstore.Attach(uheap.Attach(db.heapBase, db.heapLimit), db.headerVA)
}

// Put inserts or updates a key.
func (db *DB) Put(tid int, key, val []byte) (kernel.OpResult, error) {
	p, err := db.proc()
	if err != nil {
		return kernel.OpResult{}, err
	}
	res, err := db.m.Run(p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall()
		e.Charge(db.cfg.PerOpCompute)
		if err := db.store().Set(e, key, val); err != nil {
			return err
		}
		if db.cfg.WAL != nil {
			db.cfg.WAL.Append(e.Lane, len(key)+len(val))
		}
		if db.cfg.JournalAppend != nil {
			db.cfg.JournalAppend(e.Lane, len(key)+len(val))
		}
		db.bytesSinceFlush += len(key) + len(val) + 40
		if db.cfg.FlushDev != nil && db.cfg.MemtableLimit > 0 && db.bytesSinceFlush >= db.cfg.MemtableLimit {
			db.flush(e)
		}
		return nil
	})
	if err == nil {
		db.Stats.Puts++
	}
	return res, err
}

// flush hands the memtable to the background flusher; if the previous flush
// is still in flight the writer stalls (RocksDB write stall).
func (db *DB) flush(e *kernel.Env) {
	now := e.Lane.Now()
	if busy := db.cfg.FlushDev.BusyUntil(); busy > now {
		db.Stats.StallTime += busy.Sub(now)
		e.Lane.AdvanceTo(busy)
	}
	db.cfg.FlushDev.WriteAsync(e.Lane.Now(), db.bytesSinceFlush)
	db.bytesSinceFlush = 0
	db.Stats.Flushes++
}

// Get reads a key.
func (db *DB) Get(tid int, key []byte) (kernel.OpResult, []byte, bool, error) {
	p, err := db.proc()
	if err != nil {
		return kernel.OpResult{}, nil, false, err
	}
	var val []byte
	var ok bool
	res, err := db.m.Run(p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall()
		e.Charge(db.cfg.PerOpCompute)
		var err error
		val, ok, err = db.store().Get(e, key)
		return err
	})
	if err == nil {
		db.Stats.Gets++
	}
	return res, val, ok, err
}

// Count returns the number of live keys in the memtable.
func (db *DB) Count() (uint64, error) {
	p, err := db.proc()
	if err != nil {
		return 0, err
	}
	var n uint64
	_, err = db.m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		var err error
		n, err = db.store().Count(e)
		return err
	})
	return n, err
}
