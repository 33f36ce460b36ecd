package checkpoint

import (
	"testing"
	"testing/quick"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

func pg(f uint32) mem.PageID { return mem.PageID{Kind: mem.KindNVM, Frame: f} }

func TestChooseSourceRule1(t *testing.T) {
	// Backup with version == committed wins, whichever slot holds it.
	cp := &caps.CkptPage{Ver: [2]uint64{5, 0}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != 0 {
		t.Errorf("got %d", got)
	}
	cp = &caps.CkptPage{Ver: [2]uint64{3, 5}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestChooseSourceRule2RuntimePage(t *testing.T) {
	// Unmodified runtime page (second backup with version zero).
	cp := &caps.CkptPage{Ver: [2]uint64{3, 0}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != 1 {
		t.Errorf("got %d", got)
	}
	// Empty backup, runtime only (Figure 6a case ❸).
	cp = &caps.CkptPage{Ver: [2]uint64{0, 0}, Page: [2]mem.PageID{mem.NilPage, pg(2)}}
	if got := RestoreSource(cp, 5); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestChooseSourceRule3HigherCommitted(t *testing.T) {
	// DRAM-cached page at crash: both slots hold real versions; the
	// higher committed one wins; in-flight versions (> committed) are
	// ignored.
	cp := &caps.CkptPage{Ver: [2]uint64{4, 3}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != 0 {
		t.Errorf("got %d", got)
	}
	cp = &caps.CkptPage{Ver: [2]uint64{6, 4}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != 1 {
		t.Errorf("in-flight version not ignored: got %d", got)
	}
}

func TestChooseSourceSwap(t *testing.T) {
	cp := &caps.CkptPage{Swap: 7, Ver: [2]uint64{3, 0}, Page: [2]mem.PageID{pg(1), mem.NilPage}}
	if got := RestoreSource(cp, 5); got != srcSwap {
		t.Errorf("got %d", got)
	}
	// ...but a rule-1 backup supersedes the swap copy.
	cp = &caps.CkptPage{Swap: 7, Ver: [2]uint64{5, 0}, Page: [2]mem.PageID{pg(1), mem.NilPage}}
	if got := RestoreSource(cp, 5); got != 0 {
		t.Errorf("got %d", got)
	}
}

func TestChooseSourceNone(t *testing.T) {
	// All copies empty or uncommitted: unrecoverable.
	cp := &caps.CkptPage{Ver: [2]uint64{6, 6}, Page: [2]mem.PageID{pg(1), pg(2)}}
	if got := RestoreSource(cp, 5); got != srcNone {
		t.Errorf("got %d", got)
	}
	cp = &caps.CkptPage{}
	if got := RestoreSource(cp, 5); got != srcNone {
		t.Errorf("empty cp: got %d", got)
	}
}

// Properties over arbitrary CkptPage states. A slot restore may not use is
// an empty one: severFreed unlinks every slot into a free frame before the
// rules run.
func TestChooseSourceProperties(t *testing.T) {
	type state struct {
		V0, V1 uint8
		P0, P1 bool // slot present?
		Swap   uint8
		Commit uint8
	}
	f := func(s state) bool {
		cp := &caps.CkptPage{
			Ver:  [2]uint64{uint64(s.V0), uint64(s.V1)},
			Swap: uint64(s.Swap),
		}
		if s.P0 {
			cp.Page[0] = pg(10)
		}
		if s.P1 {
			cp.Page[1] = pg(11)
		}
		valid := func(p mem.PageID) bool { return !p.IsNil() }
		committed := uint64(s.Commit)
		got := RestoreSource(cp, committed)
		switch got {
		case srcNone:
			// Only legal when nothing usable exists: no valid slot
			// with a committed version, no valid v0 runtime, no swap.
			if cp.Swap != 0 {
				return false
			}
			for i := 0; i < 2; i++ {
				if valid(cp.Page[i]) && cp.Ver[i] != 0 && cp.Ver[i] <= committed {
					return false
				}
			}
			if valid(cp.Page[1]) && cp.Ver[1] == 0 {
				return false
			}
			return true
		case srcSwap:
			return cp.Swap != 0
		case 0, 1:
			// The chosen slot must be valid and hold either the
			// committed version, a version-zero runtime (slot 1),
			// or a committed version.
			if !valid(cp.Page[got]) {
				return false
			}
			v := cp.Ver[got]
			if v > committed {
				return false // never an in-flight version
			}
			if v == 0 && got != 1 {
				return false // version zero only means "runtime" in slot 1
			}
			// If a slot holds exactly the committed version, the
			// choice must be such a slot (rule 1 priority).
			for i := 0; i < 2; i++ {
				if valid(cp.Page[i]) && cp.Ver[i] == committed && cp.Ver[i] != 0 {
					if cp.Ver[got] != committed {
						return false
					}
					break
				}
			}
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
