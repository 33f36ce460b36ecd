package kernel

import (
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
	"treesls/internal/vm"
)

// userVABase is where process address spaces start mapping.
const userVABase = 0x1000_0000

// Process is the kernel's view of a user-space process: a cap-group subtree
// (Figure 4) plus the volatile address-space structure. Everything durable
// about a process lives in the capability tree; Process itself is derived
// state rebuilt after restore. Restore refills the crashed Process of the
// same name in place, as it revives the objects ORoot.Runtime points at,
// so a handle kept across a crash observes the restored process.
type Process struct {
	M       *Machine
	Name    string
	Group   *caps.CapGroup
	VMS     *caps.VMSpace
	AS      *vm.AddressSpace
	Threads []*caps.Thread

	nextVA uint64
}

// NewProcess creates a process with nThreads threads, a VM space, and the
// customary code/data/stack PMOs, mirroring how ChCore's process manager
// lays out a new program.
func (m *Machine) NewProcess(name string, nThreads int) (*Process, error) {
	if m.crashed {
		return nil, fmt.Errorf("kernel: NewProcess on crashed machine")
	}
	if _, dup := m.procs[name]; dup {
		return nil, fmt.Errorf("kernel: process %q already exists", name)
	}
	if nThreads < 1 {
		nThreads = 1
	}
	lane := &m.pickCore(nil).Lane
	lane.Charge(m.Model.SyscallEntry + m.Model.ContextSwitch)

	g := m.Tree.NewCapGroup(m.Tree.Root, name)
	vs := m.Tree.NewVMSpace(g)
	p := &Process{M: m, Name: name, Group: g, VMS: vs, nextVA: userVABase}
	p.AS = vm.NewAddressSpace(vs, m.Memory, m.Ckpt)

	// Code and data images.
	if _, _, err := p.Mmap(4, caps.PMODefault); err != nil {
		return nil, err
	}
	if _, _, err := p.Mmap(4, caps.PMODefault); err != nil {
		return nil, err
	}
	for i := 0; i < nThreads; i++ {
		th := m.Tree.NewThread(g)
		th.Touch(func(c *caps.Context) { c.PC = userVABase; c.SP = p.nextVA })
		// One stack PMO per thread.
		if _, _, err := p.Mmap(2, caps.PMODefault); err != nil {
			return nil, err
		}
		p.Threads = append(p.Threads, th)
		m.Sched.Enqueue(th)
	}
	m.procs[name] = p
	return p, nil
}

// ExitProcess terminates a process: its capability is revoked from the root
// group, its threads exit, and PMOs that became unreachable are purged
// (DRAM frames immediately, NVM frames deferred to the next checkpoint
// commit; the checkpointed backups follow via the unreachable-root sweep).
// Until the next checkpoint commits, a crash restores the process — exactly
// the single-level-store semantics: "deleted" only becomes durable when a
// checkpoint says so.
func (m *Machine) ExitProcess(name string) error {
	p := m.procs[name]
	if p == nil {
		return fmt.Errorf("kernel: no process %q", name)
	}
	lane := &m.pickCore(nil).Lane
	lane.Charge(m.Model.SyscallEntry + m.Model.ContextSwitch)

	removed := false
	m.Tree.Root.ForEach(func(slot int, c caps.Capability) {
		if c.Obj == p.Group {
			m.Tree.Root.Remove(slot)
			removed = true
		}
	})
	if !removed {
		return fmt.Errorf("kernel: process %q not rooted", name)
	}
	for _, th := range p.Threads {
		th.SetState(caps.ThreadExited)
		delete(m.threadAvail, th)
	}
	// Purge PMOs that the revocation made unreachable (shared PMOs that
	// other processes still map stay alive).
	reachable := map[uint64]bool{}
	m.Tree.Walk(func(o caps.Object) {
		if pmo, ok := o.(*caps.PMO); ok {
			reachable[pmo.ID()] = true
		}
	})
	p.Group.ForEach(func(_ int, c caps.Capability) {
		if pmo, ok := c.Obj.(*caps.PMO); ok && !reachable[pmo.ID()] {
			m.Ckpt.PurgePMO(pmo)
		}
	})
	m.Sched.RebuildFromTree(m.Tree)
	delete(m.procs, name)
	delete(m.services, name)
	return nil
}

// MainThread returns the first thread of the process.
func (p *Process) MainThread() *caps.Thread { return p.Threads[0] }

// Thread returns thread i (modulo the thread count, for easy round-robin).
func (p *Process) Thread(i int) *caps.Thread { return p.Threads[i%len(p.Threads)] }

// Mmap maps a fresh PMO of the given size into the process address space and
// returns its base virtual address. Pages materialize lazily on first touch.
func (p *Process) Mmap(pages uint64, typ caps.PMOType) (uint64, *caps.PMO, error) {
	pmo := p.M.Tree.NewPMO(p.Group, pages, typ)
	va := p.nextVA
	if err := p.VMS.Map(&caps.VMRegion{
		VABase:   va,
		NumPages: pages,
		PMO:      pmo,
		Perm:     caps.RightRead | caps.RightWrite,
	}); err != nil {
		return 0, nil, err
	}
	p.nextVA += pages * mem.PageSize
	return va, pmo, nil
}

// MapShared maps an existing PMO — typically created by another process —
// into this process's address space, installing a capability for it. This
// is the capability-tree's natural shared memory: both processes reference
// the same object, the checkpoint manager's ORoot dedup checkpoints it once
// per round, and restore revives a single shared object.
func (p *Process) MapShared(pmo *caps.PMO, perm caps.Right) (uint64, error) {
	p.Group.Install(pmo, perm)
	va := p.nextVA
	if err := p.VMS.Map(&caps.VMRegion{
		VABase:   va,
		NumPages: pmo.SizePages,
		PMO:      pmo,
		Perm:     perm,
	}); err != nil {
		return 0, err
	}
	p.nextVA += pmo.SizePages * mem.PageSize
	return va, nil
}

// BindIRQ creates an IRQ notification for a hardware line, delivered to
// handler (a thread of this process) — the last Table 1 object kind.
func (p *Process) BindIRQ(line int, handler *caps.Thread) *caps.IRQNotification {
	irq := p.M.Tree.NewIRQNotification(p.Group, line)
	irq.Handler = handler
	irq.MarkDirty()
	return irq
}

// RaiseIRQ injects a hardware interrupt: the line's pending count rises and
// the handler thread (if blocked) becomes runnable.
func (m *Machine) RaiseIRQ(irq *caps.IRQNotification) {
	irq.Raise()
	if h := irq.Handler; h != nil && h.State == caps.ThreadBlocked {
		h.SetState(caps.ThreadRunnable)
		m.Sched.Enqueue(h)
	}
}

// AckIRQ consumes one pending interrupt via a syscall, reporting whether one
// was pending.
func (e *Env) AckIRQ(irq *caps.IRQNotification) bool {
	e.Syscall()
	return irq.Ack()
}

// NetRxInterrupt models one frame arriving on a NIC receive queue steered to
// core (RSS-style static steering): the bound IRQ line is raised, the driver
// thread takes the interrupt, acknowledges it via a syscall, and copies the
// frame out of the RX ring at wire-byte cost. It returns the time at which
// the frame is in the driver's hands, ready to be IPC'd to the serving
// application. The IRQ pending count lives in a checkpointed kernel object,
// so interrupts in flight at a power failure are restored with the tree.
func (m *Machine) NetRxInterrupt(irq *caps.IRQNotification, core int, bytes int) simclock.Time {
	if core < 0 || core >= len(m.Cores) {
		core = 0
	}
	m.RaiseIRQ(irq)
	lane := &m.Cores[core].Lane
	lane.Charge(m.Model.NetRxIRQ + simclock.Duration(bytes)*m.Model.NetWireByte)
	lane.Charge(m.Model.SyscallEntry) // the handler's ack syscall
	irq.Ack()
	return lane.Now()
}

// NetTx models the driver handing one outbound frame of the given size to
// the NIC from lane: the per-packet doorbell plus the serialization cost.
func (m *Machine) NetTx(lane *simclock.Lane, bytes int) simclock.Time {
	lane.Charge(m.Model.NetTxPacket + simclock.Duration(bytes)*m.Model.NetWireByte)
	return lane.Now()
}

// NewNotification creates a notification owned by the process.
func (p *Process) NewNotification() *caps.Notification {
	return p.M.Tree.NewNotification(p.Group)
}

// Connect creates an IPC connection from this process to a server process,
// owned by the client (as ChCore does).
func (p *Process) Connect(server *Process) *caps.IPCConn {
	return p.M.Tree.NewIPCConn(p.Group, p.MainThread(), server.MainThread())
}

// Env is the execution context handed to an operation: syscall-ish accessors
// that charge simulated time on the executing core's lane. An Env is valid
// only until the operation or IPC handler it was handed to returns: the
// machine then clears it and hands it to a later one.
type Env struct {
	M    *Machine
	P    *Process
	T    *caps.Thread
	Core *Core
	Lane *simclock.Lane
}

// Read loads from the process address space.
func (e *Env) Read(va uint64, buf []byte) error { return e.P.AS.Read(e.Lane, va, buf) }

// Write stores into the process address space.
func (e *Env) Write(va uint64, data []byte) error { return e.P.AS.Write(e.Lane, va, data) }

// ReadU64 loads a word from the process address space.
func (e *Env) ReadU64(va uint64) (uint64, error) { return e.P.AS.ReadU64(e.Lane, va) }

// WriteU64 stores a word into the process address space.
func (e *Env) WriteU64(va uint64, v uint64) error { return e.P.AS.WriteU64(e.Lane, va, v) }

// Charge burns simulated CPU time (pure computation).
func (e *Env) Charge(d simclock.Duration) { e.Lane.Charge(d) }

// Syscall charges one kernel entry/exit.
func (e *Env) Syscall() { e.Lane.Charge(e.M.Model.SyscallEntry) }

// IPCCall sends msg through conn and charges the round-trip fast path.
func (e *Env) IPCCall(conn *caps.IPCConn, msg []byte) {
	conn.Send(msg)
	e.Lane.Charge(2 * e.M.Model.IPCCall)
}

// Call performs a synchronous IPC to the service owning conn's server
// endpoint: the message lands in the connection buffer, the server's
// registered handler runs — on the caller's core, ChCore/LRPC-style
// time-slice migration — and its reply is returned. An unregistered server
// is an error (the capability exists but nobody is listening).
func (e *Env) Call(conn *caps.IPCConn, msg []byte) ([]byte, error) {
	e.Lane.Charge(e.M.Model.IPCCall)
	conn.Send(msg)
	serverProc := e.M.procByThread(conn.Server)
	if serverProc == nil {
		return nil, fmt.Errorf("kernel: IPC call to a thread with no process")
	}
	h := e.M.services[serverProc.Name]
	if h == nil {
		return nil, fmt.Errorf("kernel: no service registered for %q", serverProc.Name)
	}
	srvEnv := e.M.pushEnv(serverProc, conn.Server, e.Core, e.Lane)
	defer e.M.popEnv()
	reply, err := h(srvEnv, msg)
	e.Lane.Charge(e.M.Model.IPCCall)
	return reply, err
}

// Touch mutates the current thread's register file (models in-flight
// computation state that checkpoints must capture).
func (e *Env) Touch(mutate func(*caps.Context)) {
	if e.T != nil {
		e.T.Touch(mutate)
	}
}

// Wait performs a notification wait syscall: it consumes a pending count and
// returns true, or blocks the current thread (which leaves the scheduler
// until a Signal) and returns false.
func (e *Env) Wait(n *caps.Notification) bool {
	e.Syscall()
	return n.Wait(e.T)
}

// Signal performs a notification signal syscall, re-enqueueing a woken
// waiter if one was blocked.
func (e *Env) Signal(n *caps.Notification) {
	e.Syscall()
	if woken := n.Signal(); woken != nil {
		e.M.Sched.Enqueue(woken)
	}
}
