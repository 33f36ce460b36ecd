package caps

// IPCConn is an inter-process communication connection between a client and
// a server process. TreeSLS checkpoints these objects by direct copy (§4.1).
type IPCConn struct {
	objHeader
	// Client and Server are the endpoint threads.
	Client *Thread
	Server *Thread
	// Buf is the small in-kernel message buffer of the connection
	// (bulk data travels through shared PMOs).
	Buf []byte
	// Seq counts messages through the connection.
	Seq uint64
}

func newIPCConn(id uint64, client, server *Thread) *IPCConn {
	c := new(IPCConn)
	c.reset(id)
	c.Client, c.Server = client, server
	return c
}

// reset puts c in the state of a new connection with the given ID: no
// endpoints and an empty buffer, whose storage it keeps.
func (c *IPCConn) reset(id uint64) {
	*c = IPCConn{objHeader: newHeader(KindIPCConn, id), Buf: c.Buf[:0]}
}

// Send places a message into the connection buffer and bumps the sequence
// number.
func (c *IPCConn) Send(msg []byte) {
	c.Buf = append(c.Buf[:0], msg...)
	c.Seq++
	c.MarkDirty()
}

// IPCConnSnap is the backup image of an IPC connection.
type IPCConnSnap struct {
	ClientRoot *ORoot
	ServerRoot *ORoot
	Buf        []byte
	Seq        uint64
}

// SnapKind implements Snapshot.
func (*IPCConnSnap) SnapKind() ObjectKind { return KindIPCConn }

// Snapshot direct-copies the connection state.
func (c *IPCConn) Snapshot(snap *IPCConnSnap, resolve func(Object) *ORoot) {
	snap.ClientRoot, snap.ServerRoot = nil, nil
	if c.Client != nil {
		snap.ClientRoot = resolve(c.Client)
	}
	if c.Server != nil {
		snap.ServerRoot = resolve(c.Server)
	}
	snap.Buf = append(snap.Buf[:0], c.Buf...)
	snap.Seq = c.Seq
}

// RestoreFrom rebuilds the connection.
func (c *IPCConn) RestoreFrom(snap *IPCConnSnap, revive func(*ORoot) Object) {
	c.Client, c.Server = nil, nil
	if snap.ClientRoot != nil {
		c.Client = revive(snap.ClientRoot).(*Thread)
	}
	if snap.ServerRoot != nil {
		c.Server = revive(snap.ServerRoot).(*Thread)
	}
	c.Buf = append(c.Buf[:0], snap.Buf...)
	c.Seq = snap.Seq
	c.dirty = false
}

// Notification is a synchronization object with semaphore semantics (§4.1,
// Table 1).
type Notification struct {
	objHeader
	Count   int
	waiters []*Thread
}

func newNotification(id uint64) *Notification {
	n := new(Notification)
	n.reset(id)
	return n
}

// reset puts n in the state of a new notification with the given ID: a zero
// count and no waiters. It keeps the waiter list's storage.
func (n *Notification) reset(id uint64) {
	clear(n.waiters)
	*n = Notification{objHeader: newHeader(KindNotification, id), waiters: n.waiters[:0]}
}

// Signal increments the count or wakes the first waiter, returning the woken
// thread (nil if none waited).
func (n *Notification) Signal() *Thread {
	n.MarkDirty()
	if len(n.waiters) > 0 {
		t := n.waiters[0]
		n.waiters = n.waiters[1:]
		t.SetState(ThreadRunnable)
		return t
	}
	n.Count++
	return nil
}

// Wait consumes a count or blocks the thread, returning true if it consumed
// immediately.
func (n *Notification) Wait(t *Thread) bool {
	n.MarkDirty()
	if n.Count > 0 {
		n.Count--
		return true
	}
	n.waiters = append(n.waiters, t)
	t.SetState(ThreadBlocked)
	return false
}

// NumWaiters returns the number of blocked waiters.
func (n *Notification) NumWaiters() int { return len(n.waiters) }

// NotificationSnap is the backup image of a notification: count plus waiter
// references through ORoots.
type NotificationSnap struct {
	Count   int
	Waiters []*ORoot
}

// SnapKind implements Snapshot.
func (*NotificationSnap) SnapKind() ObjectKind { return KindNotification }

// Snapshot direct-copies the notification state.
func (n *Notification) Snapshot(snap *NotificationSnap, resolve func(Object) *ORoot) {
	snap.Count = n.Count
	snap.Waiters = snap.Waiters[:0]
	for _, t := range n.waiters {
		snap.Waiters = append(snap.Waiters, resolve(t))
	}
}

// RestoreFrom rebuilds the notification.
func (n *Notification) RestoreFrom(snap *NotificationSnap, revive func(*ORoot) Object) {
	n.Count = snap.Count
	n.waiters = n.waiters[:0]
	for _, r := range snap.Waiters {
		n.waiters = append(n.waiters, revive(r).(*Thread))
	}
	n.dirty = false
}

// IRQNotification represents a hardware interrupt line bound to a handler
// thread (Table 1). The paper's test workloads never create one ("No IRQ
// object appears during the test") but the kind is fully supported.
type IRQNotification struct {
	objHeader
	Line    int
	Pending uint32
	Handler *Thread
}

func newIRQNotification(id uint64, line int) *IRQNotification {
	n := new(IRQNotification)
	n.reset(id)
	n.Line = line
	return n
}

// reset puts n in the state of a new IRQ notification with the given ID:
// line 0, nothing pending, no handler.
func (n *IRQNotification) reset(id uint64) {
	*n = IRQNotification{objHeader: newHeader(KindIRQNotification, id)}
}

// Raise records a pending interrupt.
func (n *IRQNotification) Raise() {
	n.Pending++
	n.MarkDirty()
}

// Ack consumes one pending interrupt, reporting whether any was pending.
func (n *IRQNotification) Ack() bool {
	if n.Pending == 0 {
		return false
	}
	n.Pending--
	n.MarkDirty()
	return true
}

// IRQNotificationSnap is the backup image of an IRQ notification.
type IRQNotificationSnap struct {
	Line        int
	Pending     uint32
	HandlerRoot *ORoot
}

// SnapKind implements Snapshot.
func (*IRQNotificationSnap) SnapKind() ObjectKind { return KindIRQNotification }

// Snapshot direct-copies the IRQ notification.
func (n *IRQNotification) Snapshot(snap *IRQNotificationSnap, resolve func(Object) *ORoot) {
	snap.Line = n.Line
	snap.Pending = n.Pending
	snap.HandlerRoot = nil
	if n.Handler != nil {
		snap.HandlerRoot = resolve(n.Handler)
	}
}

// RestoreFrom rebuilds the IRQ notification.
func (n *IRQNotification) RestoreFrom(snap *IRQNotificationSnap, revive func(*ORoot) Object) {
	n.Line = snap.Line
	n.Pending = snap.Pending
	n.Handler = nil
	if snap.HandlerRoot != nil {
		n.Handler = revive(snap.HandlerRoot).(*Thread)
	}
	n.dirty = false
}
