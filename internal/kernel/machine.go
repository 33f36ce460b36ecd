// Package kernel simulates the TreeSLS microkernel machine: multiple CPU
// cores (as deterministic simulated-time lanes), processes built from
// capability-tree objects, a scheduler, IPC, the page-fault path, periodic
// whole-system checkpointing, and power-failure crash/restore.
//
// The execution model is a deterministic multi-lane simulation: each core
// owns a simclock.Lane; operations (requests, computation slices) are
// dispatched to cores and charge simulated time for every micro-step
// (syscalls, page-table walks, faults, memory traffic). Stop-the-world
// checkpoints rendezvous all lanes exactly like the paper's IPI protocol.
// Wall-clock time of the machine is the maximum over lanes.
package kernel

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/journal"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/obs/audit"
	"treesls/internal/simclock"
	"treesls/internal/vm"
)

// Config describes a machine.
type Config struct {
	// Cores is the number of CPU cores (core 0 is the checkpoint leader).
	Cores int
	// Mem sizes the NVM and DRAM devices.
	Mem mem.Config
	// Checkpoint tunes the checkpoint manager.
	Checkpoint checkpoint.Config
	// CheckpointEvery is the checkpoint interval in simulated time;
	// 0 disables periodic checkpointing (checkpoints can still be taken
	// manually). The paper's headline configuration is 1 ms.
	CheckpointEvery simclock.Duration
	// Seed makes the quiescence jitter deterministic per machine.
	Seed uint64
	// ScrubEvery is the background media-scrub interval in simulated time;
	// 0 disables periodic scrubbing (Scrub can still be called manually).
	// Scrubbing verifies the checksummed persistent world between
	// checkpoints and repairs latent media damage from the remaining
	// redundancy while it still exists.
	ScrubEvery simclock.Duration
	// AutoEvictBelowFrames, when > 0, evicts cold pages to the swap
	// device whenever free NVM drops below this threshold (§8 memory
	// over-commitment: "evict them to secondary storage when the system
	// is under memory pressure").
	AutoEvictBelowFrames int
	// Model overrides the cost model (nil = DefaultCostModel). Used by
	// sensitivity studies that ablate hardware parameters, e.g. "what if
	// NVM writes were as fast as DRAM".
	Model *simclock.CostModel
	// SkipDefaultServices boots a bare machine without the system
	// service processes (used by focused tests).
	SkipDefaultServices bool
	// Obs attaches the observability layer (nil = disabled; every hook in
	// the machine and its subsystems is then a zero-cost no-op).
	Obs *obs.Observer
	// Audit runs the state-digest auditor after every checkpoint and
	// restore, recording invariant violations in Machine.LastAudit.
	Audit bool
}

// DefaultConfig mirrors the paper's evaluation machine at simulation scale:
// 8 cores, 1000 Hz checkpointing, hybrid copy on.
func DefaultConfig() Config {
	return Config{
		Cores:           8,
		Mem:             mem.DefaultConfig(),
		Checkpoint:      checkpoint.DefaultConfig(),
		CheckpointEvery: simclock.Millisecond,
		Seed:            1,
	}
}

// Core is one simulated CPU core.
type Core struct {
	ID   int
	Lane simclock.Lane
}

// Stats counts machine-level activity.
type Stats struct {
	Ops         uint64
	Checkpoints uint64
	Crashes     uint64
	Restores    uint64
}

// Machine is the whole simulated computer.
type Machine struct {
	cfg Config

	Model   *simclock.CostModel
	Memory  *mem.Memory
	Journal *journal.Journal
	Alloc   *alloc.Allocator
	Tree    *caps.Tree
	Ckpt    *checkpoint.Manager
	Cores   []*Core
	Sched   *Scheduler

	procs map[string]*Process
	// crashedProcs is the process table at the last power failure, kept
	// until Restore rebuilds the processes: each rebuilt process is the
	// crashed one of the same name, refilled in place, and takes back its
	// address space when its VM space was revived in place, so a warm
	// restore reuses their storage. The two maps swap at each crash.
	crashedProcs map[string]*Process
	// services maps a process name to its registered IPC handler. Keyed
	// by name (not pointers) so registrations remain valid across
	// restore, like a service re-binding its endpoint at reboot.
	services map[string]ServiceHandler
	// threadAvail enforces per-thread program order: a thread's next
	// operation cannot begin before its previous one completed, even when
	// an idle core lane lags behind.
	threadAvail map[*caps.Thread]simclock.Time
	nextCkpt    simclock.Time
	nextScrub   simclock.Time
	crashed     bool
	// envs is a stack of operation contexts: RunAt and Env.Call each take
	// the next one for their frame and hand it back when the frame returns,
	// or an injected crash unwinds it, so nested frames get distinct Envs
	// and a warm operation allocates none. envDepth counts the Envs in use.
	envs     []*Env
	envDepth int
	// pumps are deterministic background workers (e.g. the checkpoint
	// replicator's ack/release pump) invoked whenever the machine clock
	// moves past a settle point. Like service handlers they are code, not
	// checkpointed state, so they survive crash/restore.
	pumps []func(simclock.Time)

	// LastScrub is the report of the most recent media scrub.
	LastScrub checkpoint.ScrubReport

	// Obs is the attached observability layer (nil when disabled).
	Obs *obs.Observer
	// Auditor is the state-digest auditor (nil unless Config.Audit).
	Auditor *audit.Auditor
	// LastAudit is the most recent audit result.
	LastAudit audit.Result

	Stats Stats
}

// New boots a machine: substrate devices, allocator, the root capability
// tree, the checkpoint manager, and (unless disabled) the default system
// services whose object footprint mirrors Table 2's "Default" row.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Mem.NVMFrames == 0 {
		cfg.Mem = mem.DefaultConfig()
	}
	model := cfg.Model
	if model == nil {
		model = simclock.DefaultCostModel()
	}
	memory := mem.New(cfg.Mem, model)
	// Crash-time media faults never land on the reserved metadata area
	// (commit record, journal frame, allocator bitmaps): those structures
	// carry their own mirrored redundancy and are exercised by targeted
	// injection instead of the random fault sweep.
	memory.SetProtectedFrames(alloc.ReservedMetaFrames)
	jrnl := journal.New(model, memory)
	al := alloc.New(memory, jrnl)
	tree := caps.NewTree()

	m := &Machine{
		cfg:          cfg,
		Model:        model,
		Memory:       memory,
		Journal:      jrnl,
		Alloc:        al,
		Tree:         tree,
		Sched:        NewScheduler(cfg.Cores),
		procs:        make(map[string]*Process),
		crashedProcs: make(map[string]*Process),
		services:     make(map[string]ServiceHandler),
		threadAvail:  make(map[*caps.Thread]simclock.Time),
	}
	m.Ckpt = checkpoint.New(cfg.Checkpoint, memory, al, tree)
	for i := 0; i < cfg.Cores; i++ {
		c := &Core{ID: i}
		c.Lane.SetID(i)
		m.Cores = append(m.Cores, c)
	}
	if cfg.CheckpointEvery > 0 {
		m.nextCkpt = simclock.Time(cfg.CheckpointEvery)
	}
	if cfg.ScrubEvery > 0 {
		m.nextScrub = simclock.Time(cfg.ScrubEvery)
	}
	if cfg.Obs != nil {
		m.Obs = cfg.Obs
		m.Ckpt.SetObserver(cfg.Obs)
		memory.SetObserver(cfg.Obs)
		jrnl.SetObserver(cfg.Obs)
		m.registerMetrics()
	}
	if cfg.Audit {
		m.Auditor = &audit.Auditor{Mem: memory, Alloc: al, Jrnl: jrnl, Ckpt: m.Ckpt}
		if m.Obs.MetricsOn() {
			r := m.Obs.Metrics
			r.GaugeFunc("audit.checks", func() int64 { return int64(m.Auditor.Checks) })
			r.GaugeFunc("audit.violations", func() int64 { return int64(m.Auditor.TotalViolations) })
		}
	}
	if !cfg.SkipDefaultServices {
		m.bootServices()
	}
	return m
}

// NewStandby boots a bare machine prepared to receive a replicated
// checkpoint image: no default services (the image brings the whole
// capability tree, services re-bind after failover) and no periodic
// checkpointing or scrubbing of its own until it is promoted.
func NewStandby(cfg Config) *Machine {
	cfg.SkipDefaultServices = true
	cfg.CheckpointEvery = 0
	cfg.ScrubEvery = 0
	return New(cfg)
}

// RegisterPump installs a deterministic background worker invoked with the
// current machine time after every checkpoint and at every settle point.
// Pumps drive work whose deadline is a simulated-time instant rather than an
// operation — e.g. releasing externally-gated responses once a replication
// ack has arrived.
func (m *Machine) RegisterPump(fn func(simclock.Time)) {
	m.pumps = append(m.pumps, fn)
}

// runPumps fires the registered pumps at time t.
func (m *Machine) runPumps(t simclock.Time) {
	if m.crashed {
		return
	}
	for _, fn := range m.pumps {
		fn(t)
	}
}

// registerMetrics surfaces machine-level quantities through snapshot-time
// callbacks: the wall clock and the per-lane idle time (how long each core
// spent waiting at rendezvous barriers or between operations).
func (m *Machine) registerMetrics() {
	if !m.Obs.MetricsOn() {
		return
	}
	r := m.Obs.Metrics
	r.GaugeFunc("kernel.now_ns", func() int64 { return int64(m.Now()) })
	r.GaugeFunc("kernel.ops", func() int64 { return int64(m.Stats.Ops) })
	r.GaugeFunc("kernel.crashes", func() int64 { return int64(m.Stats.Crashes) })
	r.GaugeFunc("kernel.restores", func() int64 { return int64(m.Stats.Restores) })
	for _, c := range m.Cores {
		lane := &c.Lane
		r.GaugeFunc(fmt.Sprintf("kernel.lane%d.idle_ns", c.ID), func() int64 {
			return int64(lane.IdleTime())
		})
	}
}

// auditNow runs the state-digest auditor (if enabled) at a protocol
// boundary, storing the result in LastAudit.
func (m *Machine) auditNow(where string) {
	if m.Auditor == nil {
		return
	}
	m.LastAudit = m.Auditor.Check(m.Tree, where)
	if m.Obs.TraceOn() {
		lane := &m.Cores[0].Lane
		m.Obs.Trace.Instant(lane.ID(), lane.Now(), "audit", where,
			obs.I("runtime_digest", int64(m.LastAudit.RuntimeDigest)),
			obs.I("backup_digest", int64(m.LastAudit.BackupDigest)),
			obs.I("violations", int64(len(m.LastAudit.Violations))))
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the machine wall clock: the maximum over core lanes.
func (m *Machine) Now() simclock.Time {
	var t simclock.Time
	for _, c := range m.Cores {
		if c.Lane.Now() > t {
			t = c.Lane.Now()
		}
	}
	return t
}

// Crashed reports whether the machine is powered off after a failure.
func (m *Machine) Crashed() bool { return m.crashed }

// Process returns the process named name, or nil.
func (m *Machine) Process(name string) *Process { return m.procs[name] }

// lanes collects the core lanes for the checkpoint manager.
func (m *Machine) lanes() []*simclock.Lane {
	ls := make([]*simclock.Lane, len(m.Cores))
	for i, c := range m.Cores {
		ls[i] = &c.Lane
	}
	return ls
}

// quiesce models the residual non-interruptible kernel section of a core
// when the stop IPI arrives: a deterministic pseudo-random value bounded by
// the cost model, derived from the machine seed and checkpoint count.
func (m *Machine) quiesce(core int) simclock.Duration {
	x := m.cfg.Seed*0x9E3779B97F4A7C15 + uint64(core)*0xBF58476D1CE4E5B9 + m.Ckpt.Stats.Checkpoints*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 27
	frac := x % 1000
	return simclock.Duration(uint64(m.Model.MaxKernelSection) * frac / 1000 / 4)
}

// TakeCheckpoint forces a whole-system checkpoint now (Figure 5 ❶-❺).
func (m *Machine) TakeCheckpoint() checkpoint.Report {
	if m.crashed {
		panic("kernel: checkpoint on a crashed machine")
	}
	rep := m.Ckpt.TakeCheckpoint(m.lanes(), 0, m.quiesce)
	m.Stats.Checkpoints++
	m.auditNow("checkpoint")
	m.runPumps(m.Now())
	return rep
}

// PublishCheckpoint publishes the prepared-but-unpublished checkpoint round
// of a deferred-publication machine (checkpoint.Config.DeferCommitPublish):
// the commit word, journal record, log truncation and garbage collection
// that TakeCheckpoint withheld. The cluster coordinator calls it on every
// shard once the covering cluster cut is durably announced.
func (m *Machine) PublishCheckpoint() (uint64, error) {
	if m.crashed {
		return 0, fmt.Errorf("kernel: publish on a crashed machine")
	}
	lane := &m.Cores[0].Lane
	v, err := m.Ckpt.PublishCommit(lane)
	if err != nil {
		return 0, err
	}
	m.auditNow("publish")
	m.runPumps(m.Now())
	return v, nil
}

// runDueCheckpoints fires every periodic checkpoint whose deadline is at or
// before t.
func (m *Machine) runDueCheckpoints(t simclock.Time) {
	if m.cfg.CheckpointEvery <= 0 {
		return
	}
	for m.nextCkpt <= t {
		// Rendezvous at the deadline: cores that are idle (behind)
		// catch up to the checkpoint time first.
		for _, c := range m.Cores {
			c.Lane.AdvanceTo(m.nextCkpt)
		}
		m.TakeCheckpoint()
		m.nextCkpt = m.nextCkpt.Add(m.cfg.CheckpointEvery)
	}
}

// NextCheckpointAt returns the deadline of the next periodic checkpoint
// (zero if periodic checkpointing is off).
func (m *Machine) NextCheckpointAt() simclock.Time { return m.nextCkpt }

// Scrub runs one media-scrub pass on core 0 now (see checkpoint.Scrub).
func (m *Machine) Scrub() checkpoint.ScrubReport {
	if m.crashed {
		panic("kernel: scrub on a crashed machine")
	}
	lane := &m.Cores[0].Lane
	m.LastScrub = m.Ckpt.Scrub(lane)
	return m.LastScrub
}

// runDueScrubs fires every periodic media scrub whose deadline is at or
// before t. Scrubbing rides on core 0 only — unlike a checkpoint it needs no
// stop-the-world rendezvous, it merely reads (and occasionally repairs) the
// persistent world.
func (m *Machine) runDueScrubs(t simclock.Time) {
	if m.cfg.ScrubEvery <= 0 {
		return
	}
	for m.nextScrub <= t {
		lane := &m.Cores[0].Lane
		lane.AdvanceTo(m.nextScrub)
		m.LastScrub = m.Ckpt.Scrub(lane)
		m.nextScrub = m.nextScrub.Add(m.cfg.ScrubEvery)
	}
}

// SettleTo idles the machine forward to time t, firing any checkpoints and
// scrubs due on the way.
func (m *Machine) SettleTo(t simclock.Time) {
	m.runDueCheckpoints(t)
	m.runDueScrubs(t)
	for _, c := range m.Cores {
		c.Lane.AdvanceTo(t)
	}
	m.runPumps(t)
}

// pickCore returns the core a thread should run on: its affinity if set,
// else the least-loaded (earliest-lane) core.
func (m *Machine) pickCore(t *caps.Thread) *Core {
	if t != nil && t.Sched.Affinity >= 0 && t.Sched.Affinity < len(m.Cores) {
		return m.Cores[t.Sched.Affinity]
	}
	best := m.Cores[0]
	for _, c := range m.Cores[1:] {
		if c.Lane.Now() < best.Lane.Now() {
			best = c
		}
	}
	return best
}

// OpResult describes one executed operation.
type OpResult struct {
	Core  int
	Start simclock.Time
	End   simclock.Time
}

// Latency returns the operation's simulated service time.
func (r OpResult) Latency() simclock.Duration { return r.End.Sub(r.Start) }

// Run executes fn as one operation of thread t at the earliest possible
// time (closed-loop semantics: arrival = now). See RunAt.
func (m *Machine) Run(p *Process, t *caps.Thread, fn func(e *Env) error) (OpResult, error) {
	return m.RunAt(0, p, t, fn)
}

// RunAt executes fn as one operation of thread t arriving at the given time:
// the op is dispatched to a core, periodic checkpoints due before execution
// fire first (their pause is visible in the op's latency when it spans the
// STW window), and the thread is charged a context switch.
func (m *Machine) RunAt(arrival simclock.Time, p *Process, t *caps.Thread, fn func(e *Env) error) (OpResult, error) {
	if m.crashed {
		return OpResult{}, fmt.Errorf("kernel: machine is crashed")
	}
	core := m.pickCore(t)
	if m.cfg.AutoEvictBelowFrames > 0 && m.Alloc.FreeFrames() < m.cfg.AutoEvictBelowFrames && m.Ckpt.HasCheckpoint() {
		// Memory pressure: the background reclaimer kicks in.
		if _, err := m.EvictColdPages(64); err != nil {
			return OpResult{}, err
		}
	}
	if t != nil && m.threadAvail[t] > arrival {
		arrival = m.threadAvail[t] // program order within a thread
	}
	if arrival > core.Lane.Now() {
		core.Lane.AdvanceTo(arrival)
	}
	m.runDueCheckpoints(core.Lane.Now())
	m.runDueScrubs(core.Lane.Now())
	start := core.Lane.Now()
	if arrival > 0 && arrival < start {
		start = arrival // queueing delay counts toward latency
	}
	core.Lane.Charge(m.Model.ContextSwitch)
	if t != nil {
		t.SetState(caps.ThreadRunning)
	}
	env := m.pushEnv(p, t, core, &core.Lane)
	defer m.popEnv()
	err := fn(env)
	if t != nil && t.State == caps.ThreadRunning {
		// The op may have blocked or exited the thread; only a still-
		// running thread goes back to runnable.
		t.SetState(caps.ThreadRunnable)
	}
	m.Stats.Ops++
	res := OpResult{Core: core.ID, Start: start, End: core.Lane.Now()}
	if t != nil {
		m.threadAvail[t] = res.End
	}
	// A periodic checkpoint that came due while the op ran fires now, so
	// long-running ops cannot starve the checkpointer.
	m.runDueCheckpoints(core.Lane.Now())
	m.runPumps(core.Lane.Now())
	return res, err
}

// pushEnv takes the next Env off the machine's stack for a new frame and
// fills it in.
func (m *Machine) pushEnv(p *Process, t *caps.Thread, core *Core, lane *simclock.Lane) *Env {
	if m.envDepth == len(m.envs) {
		m.envs = append(m.envs, new(Env))
	}
	e := m.envs[m.envDepth]
	m.envDepth++
	*e = Env{M: m, P: p, T: t, Core: core, Lane: lane}
	return e
}

// popEnv clears the top Env and hands it back to the stack.
func (m *Machine) popEnv() {
	m.envDepth--
	*m.envs[m.envDepth] = Env{}
}

// ServiceHandler processes one IPC request in the server's context and
// returns the reply.
type ServiceHandler func(e *Env, msg []byte) ([]byte, error)

// RegisterService installs the IPC handler for a process. Handlers are code
// (re-bound by name), not checkpointed state, so a registration survives
// crash/restore just as a service re-binding its endpoint at boot would.
func (m *Machine) RegisterService(name string, h ServiceHandler) error {
	if m.procs[name] == nil {
		return fmt.Errorf("kernel: no process %q to serve", name)
	}
	m.services[name] = h
	return nil
}

// procByThread finds the process owning a thread.
func (m *Machine) procByThread(t *caps.Thread) *Process {
	if t == nil {
		return nil
	}
	for _, p := range m.procs {
		for _, th := range p.Threads {
			if th == t {
				return p
			}
		}
	}
	return nil
}

// EvictColdPages evicts up to max cold pages to the swap device on the
// last core, the "kswapd" core (see checkpoint.Manager.EvictColdPages).
func (m *Machine) EvictColdPages(max int) (int, error) {
	if m.crashed {
		return 0, fmt.Errorf("kernel: EvictColdPages on crashed machine")
	}
	return m.Ckpt.EvictColdPages(&m.Cores[len(m.Cores)-1].Lane, max)
}

// ---- Power failure and recovery --------------------------------------------

// Crash simulates a power failure: DRAM contents and every piece of runtime
// state (the runtime capability tree, processes, page tables, scheduler
// queues) are lost; only the persistent world — NVM pages, the checkpoint
// manager's structures, the allocator metadata and journal — survives.
func (m *Machine) Crash() {
	m.Memory.Crash()
	// The journal's durable truth is its NVM frame; re-derive the Go-side
	// mirror (the pending flag may have dropped, the body may be torn).
	m.Journal.OnCrash()
	m.Tree = nil
	if !m.crashed {
		m.procs, m.crashedProcs = m.crashedProcs, m.procs
	}
	clear(m.procs)
	clear(m.threadAvail)
	m.Sched.reset()
	m.crashed = true
	m.Stats.Crashes++
}

// Restore recovers the machine from the latest committed checkpoint
// (Figure 5 ❼): allocator recovery, capability-tree revival, process and
// scheduler reconstruction. Page tables rebuild lazily through faults.
func (m *Machine) Restore() error {
	if !m.crashed {
		return fmt.Errorf("kernel: Restore on a running machine")
	}
	lane := &m.Cores[0].Lane
	// Recovery begins at the machine wall clock (the crash instant), not
	// wherever core 0's lane happened to lag: without this rendezvous the
	// restore cost would be charged into core 0's idle gap and vanish from
	// the machine's observable recovery time.
	lane.AdvanceTo(m.Now())
	tree, _, err := m.Ckpt.Restore(lane)
	if err != nil {
		return err
	}
	m.Tree = tree
	m.crashed = false

	// Rebuild derived state: processes, address spaces, run queues.
	m.rebuildProcesses()
	m.Sched.RebuildFromTree(tree)
	lane.Charge(m.Model.ContextSwitch * simclock.Duration(m.Sched.Len()))

	// All lanes resume at the post-recovery instant.
	for _, c := range m.Cores {
		c.Lane.AdvanceTo(lane.Now())
	}
	if m.cfg.CheckpointEvery > 0 {
		m.nextCkpt = m.Now().Add(m.cfg.CheckpointEvery)
	}
	if m.cfg.ScrubEvery > 0 {
		m.nextScrub = m.Now().Add(m.cfg.ScrubEvery)
	}
	m.Stats.Restores++
	m.auditNow("restore")
	return nil
}

// RestoreToCut recovers a crashed machine to exactly checkpoint version v:
// if the durable commit word lags v by one round — the shard prepared v
// under deferred publication and crashed before publishing — the word is
// rolled forward first, which is sound only because the caller's durably
// announced cluster cut proves the prepare completed. Then the ordinary
// restore runs and the landing version is verified.
func (m *Machine) RestoreToCut(v uint64) error {
	if !m.crashed {
		return fmt.Errorf("kernel: RestoreToCut on a running machine")
	}
	lane := &m.Cores[0].Lane
	lane.AdvanceTo(m.Now())
	if err := m.Ckpt.RollForwardCommit(lane, v); err != nil {
		return err
	}
	if err := m.Restore(); err != nil {
		return err
	}
	if got := m.Ckpt.CommittedVersion(); got != v {
		return fmt.Errorf("kernel: restore landed at v%d, want cut v%d", got, v)
	}
	return nil
}

// rebuildProcesses reconstructs the kernel's process table from the restored
// capability tree: every cap group holding a VM space is a process. The
// crashed process of the same name is refilled in place, and it keeps its
// address space, reset to a new one's state, when its VM space was revived
// into the crashed one.
func (m *Machine) rebuildProcesses() {
	crashed := m.crashedProcs
	m.Tree.Root.ForEach(func(_ int, c caps.Capability) {
		g, ok := c.Obj.(*caps.CapGroup)
		if !ok {
			return
		}
		vsCap := g.Find(caps.KindVMSpace)
		if vsCap.Obj == nil {
			return
		}
		vs := vsCap.Obj.(*caps.VMSpace)
		p := crashed[g.Name]
		delete(crashed, g.Name)
		if p == nil {
			p = &Process{}
		}
		as := p.AS
		if as != nil && as.Space == vs {
			as.Reset()
		} else {
			as = vm.NewAddressSpace(vs, m.Memory, m.Ckpt)
		}
		clear(p.Threads)
		*p = Process{
			M:       m,
			Name:    g.Name,
			Group:   g,
			VMS:     vs,
			AS:      as,
			Threads: p.Threads[:0],
		}
		g.ForEach(func(_ int, cc caps.Capability) {
			if th, ok := cc.Obj.(*caps.Thread); ok {
				p.Threads = append(p.Threads, th)
			}
		})
		vs.ForEachRegion(func(r *caps.VMRegion) {
			if end := r.End(mem.PageSize); end > p.nextVA {
				p.nextVA = end
			}
		})
		if p.nextVA == 0 {
			p.nextVA = userVABase
		}
		m.procs[p.Name] = p
	})
	clear(crashed)
}
