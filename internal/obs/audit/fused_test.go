package audit_test

import (
	"reflect"
	"strings"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
)

// checkpointedApp boots a machine whose one process has every page of a
// 4-page PMO written, takes a clean checkpoint and returns the PMO.
func checkpointedApp(t *testing.T) (*kernel.Machine, *caps.PMO) {
	t.Helper()
	m := newMachine(diffMatrix[1], 5, nil)
	p, err := m.NewProcess("app", 2)
	if err != nil {
		t.Fatal(err)
	}
	va, pmo, err := p.Mmap(4, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			return e.WriteU64(va+i*mem.PageSize, 0x100+i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	if !m.LastAudit.Ok() {
		t.Fatalf("clean machine has violations: %v", m.LastAudit.Violations)
	}
	return m, pmo
}

// dropSnapshots empties both backup slots of r.
func dropSnapshots(r *caps.ORoot) { r.Backup, r.Ver = [2]caps.Snapshot{}, [2]uint64{} }

// TestFusedWalksConvict: the auditor checks restorability inside the backup
// digest's walk and page placement inside the runtime digest's walk. Each
// case breaks invariants on a checkpointed machine; the audit must name the
// breach, its full Violations slice must equal the one the auditor
// produced when each check ran its own walk, and both digests must equal
// their pins, captured when object records joined pages in the two-level
// digest encoding.
func TestFusedWalksConvict(t *testing.T) {
	cases := []struct {
		name            string
		corrupt         func(m *kernel.Machine, pmo *caps.PMO)
		named           string
		runtime, backup uint64
		wantViolations  []string
	}{
		{
			name:    "missing-snapshot",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { dropSnapshots(pmo.ORoot()) },
			named:   "reachable from backup root but has no committed snapshot",
			runtime: 0xae73c626cc356be3, backup: 0x2df78b4d4c9ad20a,
			wantViolations: []string{"corrupt: object 10 (PMO) reachable from backup root but has no committed snapshot"},
		},
		{
			name:    "alias",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { pmo.Lookup(2).Page = pmo.Lookup(1).Page },
			named:   "aliased by",
			runtime: 0xb8c199a3b64b1395, backup: 0xae73c626cc356be3,
			wantViolations: []string{"corrupt: frame NVM:17 aliased by PMO 10 page 2 and object 10"},
		},
		{
			name:    "mapped-no-frame",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { pmo.Lookup(1).Page = mem.NilPage },
			named:   "mapped but holds no frame",
			runtime: 0xfca7bf6f7bf22f68, backup: 0xae73c626cc356be3,
			wantViolations: []string{"corrupt: PMO 10 page 1 mapped but holds no frame"},
		},
		{
			name:    "swapped-with-frame",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { pmo.Lookup(3).SwappedOut = true },
			named:   "swapped out but still holds frame",
			runtime: 0x317aaa8351748891, backup: 0xae73c626cc356be3,
			wantViolations: []string{"corrupt: PMO 10 page 3 swapped out but still holds frame 19"},
		},
		{
			name:    "poisoned",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { m.Memory.InjectPoison(pmo.Lookup(0).Page, 0, 64, 9) },
			named:   "is poisoned",
			runtime: 0x6573180ebaaca100, backup: 0x6573180ebaaca100,
			wantViolations: []string{"corrupt: PMO 10 page 0 live runtime frame NVM:16 is poisoned"},
		},
		{
			name:    "dram-count",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) { pmo.Lookup(2).Page = m.Memory.AllocDRAM() },
			named:   "DRAM pages in the tree but manager counts",
			runtime: 0x1f5589b80997ec9f, backup: 0xae73c626cc356be3,
			wantViolations: []string{"corrupt: 1 DRAM pages in the tree but manager counts 0 cached"},
		},
		{
			// Every breach at once pins the order: the backup walk's
			// reports in DFS order, then the runtime walk's in page order.
			name: "all",
			corrupt: func(m *kernel.Machine, pmo *caps.PMO) {
				m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
					if r.Kind == caps.KindThread || r.Kind == caps.KindPMO {
						dropSnapshots(r)
					}
				})
				m.Memory.InjectPoison(pmo.Lookup(0).Page, 0, 64, 9)
				pmo.Lookup(1).Page = mem.NilPage
				pmo.Lookup(2).Page = pmo.Lookup(0).Page
				pmo.Lookup(3).SwappedOut = true
			},
			named:   "has no committed snapshot",
			runtime: 0x7b1d98a7c0b6b6e2, backup: 0xcd0a0654e65d6596,
			wantViolations: []string{
				"corrupt: object 4 (PMO) reachable from backup root but has no committed snapshot",
				"corrupt: object 5 (PMO) reachable from backup root but has no committed snapshot",
				"corrupt: object 7 (PMO) reachable from backup root but has no committed snapshot",
				"corrupt: object 9 (PMO) reachable from backup root but has no committed snapshot",
				"corrupt: object 10 (PMO) reachable from backup root but has no committed snapshot",
				"corrupt: object 6 (Thread) reachable from backup root but has no committed snapshot",
				"corrupt: object 8 (Thread) reachable from backup root but has no committed snapshot",
				"corrupt: PMO 10 page 0 live runtime frame NVM:16 is poisoned",
				"corrupt: PMO 10 page 1 mapped but holds no frame",
				"corrupt: PMO 10 page 2 live runtime frame NVM:16 is poisoned",
				"corrupt: frame NVM:16 aliased by PMO 10 page 2 and object 10",
				"corrupt: PMO 10 page 3 swapped out but still holds frame 19",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, pmo := checkpointedApp(t)
			c.corrupt(m, pmo)
			res := m.Auditor.Check(m.Tree, "corrupt")
			named := false
			for _, v := range res.Violations {
				named = named || strings.Contains(v, c.named)
			}
			if !named {
				t.Errorf("no %q violation in %q", c.named, res.Violations)
			}
			if !reflect.DeepEqual(res.Violations, c.wantViolations) {
				t.Errorf("violations:\n got %q\nwant %q", res.Violations, c.wantViolations)
			}
			if res.RuntimeDigest != c.runtime || res.BackupDigest != c.backup {
				t.Errorf("digests (runtime, backup) = (%#x, %#x), want (%#x, %#x)",
					res.RuntimeDigest, res.BackupDigest, c.runtime, c.backup)
			}
			// A second audit of the same state reuses the alias map and
			// must agree with the first.
			if again := m.Auditor.Check(m.Tree, "corrupt"); !reflect.DeepEqual(again, res) {
				t.Errorf("second audit differs: %+v vs %+v", again, res)
			}
		})
	}
}
