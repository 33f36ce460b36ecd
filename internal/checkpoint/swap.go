package checkpoint

import (
	"bytes"
	"fmt"

	"treesls/internal/baseline/disk"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// Memory over-commitment (§8 Discussion): "we can add a cold page list to
// track cold pages and evict them to secondary storage, such as SSDs and
// disks, when the system is under memory pressure." The manager owns the
// swap device, because a swap slot is one more place where a page's
// consistent bytes can live, beside its backup slots and its version-zero
// runtime page.
//
// Eviction is only correct for pages whose runtime NVM copy *is* the
// consistent checkpoint copy (the version-zero-second-backup state of
// §4.3.3): the content is written to the swap device, the CkptPage records
// the swap slot (persistently, so restore can find it), and the NVM frame is
// released. Faults — and the restore path — bring the page back on demand.

// SwapStats counts swap activity.
type SwapStats struct {
	Evicted    uint64
	SwappedIn  uint64
	SlotsInUse int
}

// swapState is the swap device. The device and the slot contents model a
// persistent SSD: like the rest of the manager's persistent world, they
// survive a crash.
type swapState struct {
	dev   *disk.Device // nil, with data, until the first slot is written
	data  map[uint64][]byte
	next  uint64
	free  []uint64
	stats SwapStats
}

// ensureSwap creates the swap device at first use.
func (m *Manager) ensureSwap() {
	if m.swap.dev == nil {
		m.swap.dev = disk.New(disk.NVMe, m.model)
		m.swap.data = make(map[uint64][]byte)
	}
}

// allocSlot returns a free swap slot.
func (s *swapState) allocSlot() uint64 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	id := s.next
	s.next++
	return id
}

// installSwapSlot stores a copy of data in a swap slot and moves the slot
// allocator past it, so later evictions never reuse the slot. A standby
// installing a replicated image calls it for each swapped page.
func (m *Manager) installSwapSlot(slot uint64, data []byte) {
	m.ensureSwap()
	m.swap.data[slot] = bytes.Clone(data)
	m.swap.next = max(m.swap.next, slot+1)
}

// releaseSwapSlot recycles cp's swap slot, if it has one, once a checkpoint
// round superseded the swapped content or swept its PMO, and clears
// cp.Swap: a sweep that a crash cut short visits the entry again and must
// not put the slot on the free list twice.
func (m *Manager) releaseSwapSlot(cp *caps.CkptPage) {
	if cp.Swap == 0 {
		return
	}
	delete(m.swap.data, cp.Swap-1)
	m.swap.free = append(m.swap.free, cp.Swap-1)
	cp.Swap = 0
}

// SwapStats returns swap activity counters.
func (m *Manager) SwapStats() SwapStats {
	st := m.swap.stats
	st.SlotsInUse = len(m.swap.data)
	return st
}

// EvictColdPages evicts up to max cold pages to the swap device, charging
// lane, and returns how many it evicted. A page is cold when it is
// NVM-resident, clean, write-protected (its runtime copy is the consistent
// checkpoint copy) and not hot-listed. Eviction requires at least one
// committed checkpoint.
func (m *Manager) EvictColdPages(lane *simclock.Lane, max int) (int, error) {
	if !m.HasCheckpoint() {
		return 0, fmt.Errorf("checkpoint: cannot evict before the first checkpoint")
	}
	m.ensureSwap()
	evicted := 0
	m.tree.Walk(func(o caps.Object) {
		if evicted >= max {
			return
		}
		pmo, ok := o.(*caps.PMO)
		if !ok || pmo.Type == caps.PMOEternal {
			return
		}
		r := pmo.ORoot()
		if r == nil || r.Backup[0] == nil {
			return
		}
		snap, ok := r.Backup[0].(*caps.PMOSnap)
		if !ok {
			return
		}
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			if evicted >= max {
				return false
			}
			if s.SwappedOut || s.Writable || s.Dirty || s.OnHotList || s.Page.Kind != mem.KindNVM {
				return true
			}
			cp, ok := snap.Pages.Get(idx)
			if !ok || cp.Page[1] != s.Page || cp.Ver[1] != 0 {
				// The runtime page is not the consistent copy;
				// evicting it would break restore.
				return true
			}
			// 1. Persist the content to the swap device.
			slotID := m.swap.allocSlot()
			buf := make([]byte, mem.PageSize)
			lane.Charge(m.memory.ReadAt(s.Page, 0, buf))
			m.swap.data[slotID] = buf
			m.swap.dev.WriteSync(lane, mem.PageSize)
			// 2. Atomically redirect the checkpointed page to swap.
			cp.Swap = slotID + 1
			cp.Page[1] = mem.NilPage
			// 3. Release the NVM frame — deferred to the next
			// checkpoint commit so recovery's rollback can never
			// collide with a reused frame.
			frame := s.Page
			s.Page = mem.NilPage
			s.SwappedOut = true
			m.deferFreePage(frame)
			m.swap.stats.Evicted++
			evicted++
			return true
		})
	})
	return evicted, nil
}

// SwapIn services a fault on a swapped-out page: it reads the page's content
// back from the device into a checkpoint-owned NVM frame and publishes the
// frame as the page's version-zero copy, as restore publishes its copies,
// before it releases the slot. A crash before the publication leaks the
// frame and leaves the slot the page's source. The page comes back
// write-protected — its content is the consistent checkpoint copy, and the
// first store will copy-on-write as usual.
func (m *Manager) SwapIn(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error {
	r := pmo.ORoot()
	if r == nil || r.Backup[0] == nil {
		return fmt.Errorf("checkpoint: swapped page %d of PMO %d has no checkpoint state", idx, pmo.ID())
	}
	snap := r.Backup[0].(*caps.PMOSnap)
	cp, ok := snap.Pages.Get(idx)
	if !ok || cp.Swap == 0 {
		return fmt.Errorf("checkpoint: page %d of PMO %d marked swapped but has no swap slot", idx, pmo.ID())
	}
	data := m.swap.data[cp.Swap-1]
	if data == nil {
		return fmt.Errorf("checkpoint: swap slot %d lost", cp.Swap-1)
	}
	page, err := m.alloc.AllocPageCkpt(lane)
	if err != nil {
		return fmt.Errorf("checkpoint: swap-in allocation: %w", err)
	}
	lane.Charge(simclock.Duration(m.model.NVMeReadBlock)) // device read
	lane.Charge(m.memory.WriteAt(page, 0, data))
	m.publishRuntime(lane, pmo, cp, 1, page)
	m.Stats.BackupPages++
	m.releaseSwapSlot(cp)
	s.Page = page
	s.SwappedOut = false
	s.Writable = false
	s.Dirty = false
	m.swap.stats.SwappedIn++
	return nil
}
