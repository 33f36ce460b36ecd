package kvstore

import (
	"fmt"

	"treesls/internal/apps/uheap"
	"treesls/internal/baseline/wal"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// ServerConfig configures a KV server process.
type ServerConfig struct {
	// Name is the process name ("redis", "memcached", ...).
	Name string
	// Threads is the server's worker thread count.
	Threads int
	// HeapPages sizes the store's heap.
	HeapPages uint64
	// Buckets is the hash-table bucket count.
	Buckets uint64
	// WAL, when set, appends a record per write on the critical path (the
	// Redis-AOF / Linux-WAL configuration of Figure 13).
	WAL *wal.Log
	// Ext, when set, routes responses through the external-synchrony
	// driver (§5): acknowledgements reach clients only after the next
	// checkpoint.
	Ext *extsync.Driver
	// EchoValue makes SET respond with the written value (RESP-style
	// echo) instead of "+OK", so a response identifies the request that
	// produced it — internal/net's clients match acknowledgements to
	// requests by the echoed payload.
	EchoValue bool
	// PerOpCompute adds fixed per-request CPU work (request parsing,
	// protocol handling); it is how Redis-vs-Memcached and libc
	// differences are modelled.
	PerOpCompute simclock.Duration
}

// Server is a KV server running on the machine. The handle is restore-safe:
// it resolves its process by name and its store by saved VAs on every
// operation.
type Server struct {
	m   *kernel.Machine
	cfg ServerConfig

	heapBase, heapLimit uint64
	headerVA            uint64

	// Stats.
	Sets, Gets, Dels uint64
	// Applies counts migration installs (ApplyAt) — writes that arrived
	// shard-to-shard instead of from a client.
	Applies uint64
}

// NewServer creates the server process and formats its store.
func NewServer(m *kernel.Machine, cfg ServerConfig) (*Server, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 2048
	}
	p, err := m.NewProcess(cfg.Name, cfg.Threads)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, cfg: cfg}
	_, err = m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		heap, err := uheap.New(e, cfg.HeapPages)
		if err != nil {
			return err
		}
		st, err := Create(e, heap, cfg.Buckets)
		if err != nil {
			return err
		}
		s.heapBase, s.heapLimit = heap.Base, heap.Limit
		s.headerVA = st.HeaderVA
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: initializing %s: %w", cfg.Name, err)
	}
	return s, nil
}

// Machine returns the hosting machine.
func (s *Server) Machine() *kernel.Machine { return s.m }

// Name returns the server's process name.
func (s *Server) Name() string { return s.cfg.Name }

// store rebinds the store handle (valid across restores).
func (s *Server) store() *Store {
	return Attach(uheap.Attach(s.heapBase, s.heapLimit), s.headerVA)
}

// proc resolves the server process in the current machine state.
func (s *Server) proc() (*kernel.Process, error) {
	p := s.m.Process(s.cfg.Name)
	if p == nil {
		return nil, fmt.Errorf("kvstore: process %q not found (machine crashed?)", s.cfg.Name)
	}
	return p, nil
}

// Set executes one SET on worker thread tid and returns the op result plus,
// under external synchrony, the response sequence number (delivery of which
// marks client-visible completion).
func (s *Server) Set(tid int, key, val []byte) (kernel.OpResult, uint64, error) {
	return s.SetAt(0, tid, key, val)
}

// SetAt is Set with an explicit request arrival time (open/closed-loop
// drivers use it to model client think time and batching).
func (s *Server) SetAt(arrival simclock.Time, tid int, key, val []byte) (kernel.OpResult, uint64, error) {
	var seq uint64
	res, err := s.SetAtNotify(arrival, tid, key, val, func(q uint64, _ simclock.Time) { seq = q })
	return res, seq, err
}

// SetAtNotify is SetAt for drivers that attribute gated responses: sent
// runs inside the operation, as soon as the response is in the extsync
// ring, with its sequence number and the lane time. Attributing after
// SetAt returns is too late, because RunAt fires a checkpoint that came due
// during the operation before returning, and that checkpoint's commit
// releases the response. sent is not called on an ungated server.
func (s *Server) SetAtNotify(arrival simclock.Time, tid int, key, val []byte,
	sent func(seq uint64, at simclock.Time)) (kernel.OpResult, error) {
	p, err := s.proc()
	if err != nil {
		return kernel.OpResult{}, err
	}
	res, err := s.m.RunAt(arrival, p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall() // request arrives via IPC from netd
		e.Charge(s.cfg.PerOpCompute)
		resp := []byte("+OK")
		if s.cfg.EchoValue {
			resp = val
		}
		// A SET whose response the ring cannot take must have no effect.
		// The refused Send charges and counts the refusal as it would
		// after the write, and returns the ErrRingFull error.
		if s.cfg.Ext != nil && s.cfg.Ext.Full() {
			_, err := s.cfg.Ext.Send(e.Lane, resp)
			return err
		}
		if err := s.store().Set(e, key, val); err != nil {
			return err
		}
		if s.cfg.WAL != nil {
			s.cfg.WAL.Append(e.Lane, len(key)+len(val))
		}
		if s.cfg.Ext != nil {
			seq, err := s.cfg.Ext.Send(e.Lane, resp)
			if err != nil {
				return err
			}
			sent(seq, e.Lane.Now())
		}
		return nil
	})
	if err == nil {
		s.Sets++
	}
	return res, err
}

// Get executes one GET on worker thread tid.
func (s *Server) Get(tid int, key []byte) (kernel.OpResult, []byte, bool, error) {
	return s.GetAt(0, tid, key)
}

// GetAt is Get with an explicit request arrival time.
func (s *Server) GetAt(arrival simclock.Time, tid int, key []byte) (kernel.OpResult, []byte, bool, error) {
	p, err := s.proc()
	if err != nil {
		return kernel.OpResult{}, nil, false, err
	}
	var val []byte
	var ok bool
	res, err := s.m.RunAt(arrival, p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall()
		e.Charge(s.cfg.PerOpCompute)
		var err error
		val, ok, err = s.store().Get(e, key)
		if err != nil {
			return err
		}
		if s.cfg.Ext != nil {
			_, err = s.cfg.Ext.Send(e.Lane, val)
		}
		return err
	})
	if err == nil {
		s.Gets++
	}
	return res, val, ok, err
}

// Delete executes one DEL on worker thread tid.
func (s *Server) Delete(tid int, key []byte) (kernel.OpResult, bool, error) {
	p, err := s.proc()
	if err != nil {
		return kernel.OpResult{}, false, err
	}
	var ok bool
	res, err := s.m.Run(p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall()
		e.Charge(s.cfg.PerOpCompute)
		var err error
		ok, err = s.store().Delete(e, key)
		if err != nil {
			return err
		}
		if s.cfg.WAL != nil {
			s.cfg.WAL.Append(e.Lane, len(key))
		}
		return nil
	})
	if err == nil {
		s.Dels++
	}
	return res, ok, err
}

// ApplyAt installs key -> val on worker thread tid WITHOUT the response
// path: no external-synchrony send, no WAL. It is the migration apply
// primitive — a destination shard installing a streamed or dual-routed
// write that the source shard already answers for, so emitting a second
// client-visible response would be wrong.
func (s *Server) ApplyAt(arrival simclock.Time, tid int, key, val []byte) (kernel.OpResult, error) {
	p, err := s.proc()
	if err != nil {
		return kernel.OpResult{}, err
	}
	res, err := s.m.RunAt(arrival, p, p.Thread(tid), func(e *kernel.Env) error {
		e.Syscall() // frame arrives via IPC from the migration endpoint
		e.Charge(s.cfg.PerOpCompute)
		return s.store().Set(e, key, val)
	})
	if err == nil {
		s.Applies++
	}
	return res, err
}

// Keys scans every stored key on the server's main thread in deterministic
// table order (see Store.Keys). The migration planner uses it to enumerate
// a source shard's moved keys.
func (s *Server) Keys() ([][]byte, error) {
	p, err := s.proc()
	if err != nil {
		return nil, err
	}
	var keys [][]byte
	_, err = s.m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		var err error
		keys, err = s.store().Keys(e)
		return err
	})
	return keys, err
}

// Peek reads a key on the server's main thread without touching the
// response path (no external-synchrony send, no WAL, no stats): an
// inspection read used by crash harnesses to ask what the restored state
// can justify, without generating new client-visible traffic.
func (s *Server) Peek(key []byte) ([]byte, bool, error) {
	p, err := s.proc()
	if err != nil {
		return nil, false, err
	}
	var val []byte
	var ok bool
	_, err = s.m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		var err error
		val, ok, err = s.store().Get(e, key)
		return err
	})
	return val, ok, err
}

// Count returns the number of stored keys.
func (s *Server) Count() (uint64, error) {
	p, err := s.proc()
	if err != nil {
		return 0, err
	}
	var n uint64
	_, err = s.m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		var err error
		n, err = s.store().Count(e)
		return err
	})
	return n, err
}
