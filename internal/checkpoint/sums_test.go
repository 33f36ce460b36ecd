package checkpoint

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// crc32cBitwise is the textbook bit-at-a-time CRC-32C (reflected Castagnoli
// polynomial 0x82F63B78). It shares no table and no CPU instruction with
// hash/crc32, so it is an independent reference for pageChecksum.
func crc32cBitwise(b []byte) uint32 {
	crc := ^uint32(0)
	for _, c := range b {
		crc ^= uint32(c)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x82F63B78
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// checksumTestPages returns whole pages of the fills restore sources hold:
// all zeros, a few scattered bytes, and random content.
func checksumTestPages(rng *rand.Rand) map[string][]byte {
	zero := make([]byte, mem.PageSize)
	sparse := make([]byte, mem.PageSize)
	for i := 0; i < 40; i++ {
		sparse[rng.Intn(mem.PageSize)] = byte(rng.Intn(255) + 1)
	}
	random := make([]byte, mem.PageSize)
	rng.Read(random)
	return map[string][]byte{"zero": zero, "sparse": sparse, "random": random}
}

// TestPageChecksumIsCRC32C pins pageChecksum to CRC-32C: the standard check
// value, every length 0–300 at every alignment (the hardware path splits a
// buffer into an unaligned head, 8-byte words and a tail), and whole pages.
func TestPageChecksumIsCRC32C(t *testing.T) {
	if got := pageChecksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("check value = %#x, want 0xe3069283", got)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 300+8)
	rng.Read(buf)
	for n := 0; n <= 300; n++ {
		for off := 0; off < 8; off++ {
			b := buf[off : off+n]
			if got, want := pageChecksum(b), crc32cBitwise(b); got != want {
				t.Fatalf("len %d at offset %d: pageChecksum = %#x, reference = %#x", n, off, got, want)
			}
		}
	}
	for name, p := range checksumTestPages(rng) {
		if got, want := pageChecksum(p), crc32cBitwise(p); got != want {
			t.Errorf("%s page: pageChecksum = %#x, reference = %#x", name, got, want)
		}
	}
}

// TestCommitCheckKeepsFNV1a pins the commit record's check word to FNV-1a
// over the version's little-endian bytes. Unlike a page checksum the check
// word is stored in NVM, so it is part of the durable commit-record format.
func TestCommitCheckKeepsFNV1a(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 32, ^uint64(0)} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h := fnv.New64a()
		h.Write(b[:])
		if got, want := commitCheck(v), h.Sum64(); got != want {
			t.Errorf("commitCheck(%d) = %#x, FNV-1a = %#x", v, got, want)
		}
	}
}

// TestPageChecksumDetectsMediaDamage checks the detection guarantees
// pageChecksum documents, on every page fill: a flip of any single bit,
// random two- and three-bit flips, random bursts of up to 32 bits, and the
// simulator's own silent rot (mem.InjectRot) on every line of the page
// under several seeds.
func TestPageChecksumDetectsMediaDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const bits = mem.PageSize * 8
	// undetected flips the given bits, digests, and flips them back.
	undetected := func(p []byte, want uint32, flips []int) bool {
		for _, bit := range flips {
			p[bit/8] ^= 1 << (bit % 8)
		}
		got := pageChecksum(p)
		for _, bit := range flips {
			p[bit/8] ^= 1 << (bit % 8)
		}
		return got == want
	}
	for name, page := range checksumTestPages(rng) {
		p := append([]byte(nil), page...)
		want := pageChecksum(p)
		for bit := 0; bit < bits; bit++ {
			if undetected(p, want, []int{bit}) {
				t.Fatalf("%s page: flip of bit %d undetected", name, bit)
			}
		}
		for i := 0; i < 2000; i++ {
			var flips []int
			for len(flips) < 2+i%2 {
				if bit := rng.Intn(bits); !slices.Contains(flips, bit) {
					flips = append(flips, bit)
				}
			}
			if undetected(p, want, flips) {
				t.Fatalf("%s page: flips of bits %v undetected", name, flips)
			}
		}
		for i := 0; i < 2000; i++ {
			// A burst spans at most 32 bits and begins and ends with a
			// flipped bit.
			n := 1 + rng.Intn(32)
			start := rng.Intn(bits - n + 1)
			var burst []int
			for bit := start; bit < start+n; bit++ {
				if bit == start || bit == start+n-1 || rng.Intn(2) == 0 {
					burst = append(burst, bit)
				}
			}
			if undetected(p, want, burst) {
				t.Fatalf("%s page: burst %v undetected", name, burst)
			}
		}
	}

	m := mem.New(mem.Config{NVMFrames: 64, DRAMFrames: 8}, simclock.DefaultCostModel())
	pg := mem.PageID{Kind: mem.KindNVM, Frame: 40}
	for name, page := range checksumTestPages(rng) {
		for seed := uint64(1); seed <= 8; seed++ {
			for line := 0; line < mem.PageSize/mem.LineSize; line++ {
				m.WriteRaw(pg, 0, page)
				want := pageChecksum(m.Data(pg))
				m.InjectRot(pg, line*mem.LineSize, mem.LineSize, seed)
				if pageChecksum(m.Data(pg)) == want {
					t.Fatalf("%s page: rot of line %d (seed %d) undetected", name, line, seed)
				}
			}
		}
	}
}

// BenchmarkPageChecksum digests one 4 KiB page, all zeros and random, as
// every restore-source verification does.
func BenchmarkPageChecksum(b *testing.B) {
	pages := checksumTestPages(rand.New(rand.NewSource(1)))
	for _, name := range []string{"zero", "random"} {
		page := pages[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(mem.PageSize)
			for i := 0; i < b.N; i++ {
				pageChecksum(page)
			}
		})
	}
}

// replicaCount counts the frames that have a replica.
func replicaCount(m *Manager) int {
	n := 0
	for _, e := range m.integrity {
		if e.replica != 0 {
			n++
		}
	}
	return n
}

// replicaRule checks the replica rule over every integrity entry, in frame
// order: a replica's entry carries the checksum its frame has recorded, so
// the replica holds the bytes that checksum covers.
func replicaRule(m *Manager) error {
	if m.cfg.DisableChecksums {
		return nil
	}
	frames := make([]uint32, 0, len(m.integrity))
	for f := range m.integrity {
		frames = append(frames, f)
	}
	slices.Sort(frames)
	for _, f := range frames {
		if e := m.integrity[f]; e.replica != 0 && m.integrity[e.replica].crc != e.crc {
			return fmt.Errorf("replica %v of %v holds checksum %#x, the page's is %#x",
				nvmFrame(e.replica), nvmFrame(f), m.integrity[e.replica].crc, e.crc)
		}
	}
	return nil
}

// TestPageSumsMatchBytesAtGeneration checks the invariant behind
// generation-keyed page checksums: a recorded checksum whose generation
// still equals its frame's is the CRC-32C of the frame's bytes. A random
// sequence over backup and replica frames — page writes, checkpoints, silent
// rot, poison, raw corruption, scrub passes, crashes between operations and
// inside a checkpoint, and restores — runs with two replicas in both
// persistence modes, and every integrity entry, its replica included, is
// checked after each step. A path that changes a frame's bytes without
// bumping its generation leaves a stale entry behind and fails here. So
// does a writer that records a frame's checksum without keeping its replica
// in step (the replica rule, replicaRule), and a store that lands in the
// zero frame that every never-written frame shares: the device's last
// frame, which nothing writes, must read all zeros after each step.
func TestPageSumsMatchBytesAtGeneration(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Replicas = 2
			cfg.HotThreshold = 2
			cfg.DemoteAfter = 3
			h := newHarnessMem(t, cfg, 2, mem.Config{
				NVMFrames: 4096, DRAMFrames: 64, Persist: mode, CrashSeed: 3,
			})
			for i := 0; i < 3; i++ {
				h.buildProc(fmt.Sprintf("p%d", i), 6)
			}
			h.checkpoint() // every crash below has a version to restore
			rng := rand.New(rand.NewSource(int64(mode) + 11))

			pmos := func() []*caps.PMO {
				var out []*caps.PMO
				h.tree.Walk(func(o caps.Object) {
					if p, ok := o.(*caps.PMO); ok {
						out = append(out, p)
					}
				})
				return out
			}
			// tracked lists every frame with a recorded checksum, backup
			// and replica frames alike, in frame order.
			tracked := func() []mem.PageID {
				var ps []mem.PageID
				for f := range h.mgr.integrity {
					ps = append(ps, nvmFrame(f))
				}
				slices.SortFunc(ps, func(a, b mem.PageID) int { return cmp.Compare(a.Frame, b.Frame) })
				return ps
			}
			span := func() (off, n int) {
				off = rng.Intn(mem.PageSize)
				return off, 1 + rng.Intn(min(mem.PageSize-off, 3*mem.LineSize))
			}
			restore := func() {
				h.crash()
				h.restore(t)
			}

			matched, damaged := 0, 0
			untouched, zero := nvmFrame(4095), make([]byte, mem.PageSize)
			check := func(step int, op string) {
				t.Helper()
				if g := h.mem.Gen(untouched); g != 0 || !bytes.Equal(h.mem.Data(untouched), zero) {
					t.Fatalf("step %d (%s): %v, never written, reads nonzero bytes (generation %d)", step, op, untouched, g)
				}
				for f, e := range h.mgr.integrity {
					p := nvmFrame(f)
					if e.gen != h.mem.Gen(p) {
						continue
					}
					matched++
					if got := pageChecksum(h.mem.Data(p)); got != e.crc {
						t.Fatalf("step %d (%s): %v at generation %d hashes to %#x, recorded %#x", step, op, p, e.gen, got, e.crc)
					}
				}
				if err := replicaRule(h.mgr); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
			}

			for step := 0; step < 600; step++ {
				var op string
				switch k := rng.Intn(16); {
				case k < 6:
					op = "write"
					ps := pmos()
					pmo := ps[rng.Intn(len(ps))]
					h.writePage(t, pmo, uint64(rng.Intn(int(pmo.SizePages))), []byte(fmt.Sprintf("step %d", step)))
				case k < 9:
					op = "checkpoint"
					h.checkpoint()
				case k < 12:
					ps := tracked()
					if len(ps) == 0 {
						continue
					}
					p := ps[rng.Intn(len(ps))]
					off, n := span()
					switch k {
					case 9:
						op = "InjectRot"
						h.mem.InjectRot(p, off, n, rng.Uint64())
					case 10:
						op = "InjectPoison"
						h.mem.InjectPoison(p, off, n, rng.Uint64())
					default:
						op = "WriteRaw"
						b := make([]byte, n)
						rng.Read(b)
						h.mem.WriteRaw(p, off, b)
					}
					damaged++
				case k < 13:
					op = "scrub"
					h.mgr.Scrub(h.lane())
				case k < 14:
					op = "crash inside a checkpoint"
					h.mem.ArmCrashAfter(1 + uint64(rng.Intn(60)))
					crashed := func() (crashed bool) {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := r.(mem.CrashError); !ok {
									panic(r)
								}
								crashed = true
							}
						}()
						h.checkpoint()
						return false
					}()
					h.mem.DisarmCrash()
					if crashed {
						restore()
					}
				default:
					op = "crash and restore"
					restore()
				}
				check(step, op)
			}
			st := h.mgr.Stats
			if matched == 0 || damaged == 0 || st.Restores == 0 || st.ScrubScans == 0 || st.ReplicaRepair == 0 {
				t.Fatalf("sequence too weak: %d entries checked, %d damaged, %d restores, %d scrubs, %d replica repairs",
					matched, damaged, st.Restores, st.ScrubScans, st.ReplicaRepair)
			}
		})
	}
}

// TestRestoreCopyKeepsReplicaRule replays the stop-and-copy sequence that
// left a stale replica behind. Round 1 copies the page into backup frame B
// and replicates B. A restore installs a copy of B as the write-protected
// runtime page, and the first store faults and copies into B again. Round 2
// backs the page up into a fresh frame, so the second restore's rule-1
// source is that frame and its version-zero copy lands in B, the other slot.
// B's checksum then covers the round-2 bytes; its replica must hold them
// too or be gone, never keep the round-1 bytes.
func TestRestoreCopyKeepsReplicaRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Method = MethodStopAndCopy
	cfg.Replicas = 2
	h := newHarness(t, cfg, 1)
	_, pmo, _ := h.buildProc("app", 1)
	h.writePage(t, pmo, 0, []byte("round 1"))
	h.checkpoint()
	b := ckptEntry(t, pmo, 0).Page[0]
	if h.mgr.integrity[b.Frame].replica == 0 {
		t.Fatalf("backup frame %v has no replica", b)
	}

	h.crash()
	pmo = findOnlyPMO(t, h.restore(t))
	h.writePage(t, pmo, 0, []byte("round 2")) // the fault re-copies into B
	h.checkpoint()
	h.crash()
	pmo = findOnlyPMO(t, h.restore(t))

	cp := ckptEntry(t, pmo, 0)
	if cp.Page[1] != b || cp.Ver[1] != 0 {
		t.Fatalf("version-zero slot is %v (v%d), want the reused backup frame %v", cp.Page[1], cp.Ver[1], b)
	}
	if err := replicaRule(h.mgr); err != nil {
		t.Fatal(err)
	}
	if rep := h.mgr.integrity[b.Frame].replica; rep != 0 &&
		pageChecksum(h.mem.Data(nvmFrame(rep))) != pageChecksum(h.mem.Data(b)) {
		t.Fatalf("replica %v of %v does not hold the frame's bytes", nvmFrame(rep), b)
	}
	if got := h.readPage(t, pmo, 0, 7); string(got) != "round 2" {
		t.Fatalf("restored %q, want %q", got, "round 2")
	}
}

// hostCostTree builds the tree the host-cost gate and benchmarks share: six
// processes, each a cap group with a VM space, a thread and an 8-page PMO
// whose every page is written, checkpointed twice so that every object has
// its root and snapshot and later rounds find nothing dirty.
func hostCostTree(tb testing.TB, cfg Config) *harness {
	tb.Helper()
	h := newHarness(tb, cfg, 4)
	for i := 0; i < 6; i++ {
		_, pmo, th := h.buildProc(fmt.Sprintf("p%d", i), 8)
		th.Touch(func(c *caps.Context) { c.PC = uint64(i) })
		for idx := uint64(0); idx < pmo.SizePages; idx++ {
			h.writePage(tb, pmo, idx, []byte(fmt.Sprintf("p%d page %d", i, idx)))
		}
	}
	h.checkpoint()
	h.checkpoint()
	return h
}

// walkVariants are the two capability-tree walks a clean round can take.
var walkVariants = []struct {
	name     string
	parallel bool
}{{"parallel", true}, {"serial", false}}

// TestCleanRoundAllocations is the allocation gate of the checkpoint walk:
// after two warm-up rounds, a clean round on 4 lanes allocates at most once
// — the journal's commit record — under both walks. The walk's children
// stack, the partition, the work queue and the per-round scratch of hybrid
// copy and the collection are all reused.
func TestCleanRoundAllocations(t *testing.T) {
	for _, v := range walkVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ParallelWalk = v.parallel
			h := hostCostTree(t, cfg)
			h.checkpoint()
			h.checkpoint()
			copied := h.mgr.Stats.PagesCopied
			allocs := testing.AllocsPerRun(20, func() { h.checkpoint() })
			if allocs > 1 {
				t.Errorf("a warm clean round allocates %.1f times, want at most 1", allocs)
			}
			// The rounds measured were clean and walked the whole tree.
			rep := h.mgr.LastReport
			if h.mgr.Stats.PagesCopied != copied || rep.PagesMarkedRO != 0 {
				t.Errorf("round was not clean: %d pages copied, %d marked read-only",
					h.mgr.Stats.PagesCopied-copied, rep.PagesMarkedRO)
			}
			if rep.PerKindCount != h.tree.Counts() {
				t.Errorf("round visited %v, tree holds %v", rep.PerKindCount, h.tree.Counts())
			}
			if v.parallel && rep.WalkUnits < 4 {
				t.Errorf("parallel round ran %d units", rep.WalkUnits)
			}
		})
	}
}

// TestRestoreAllocations is the allocation gate of restore: a warm crash
// and restore of the host-cost tree allocates at most 3 times. It allocates
// twice: the restore manifest (Restore) and the Tree that wraps the revived
// root (caps.RebuildTree). Every object is revived into the crashed runtime
// object its root points at, which keeps its slices, region structs, radix
// nodes and page slots, and the discovery order, reference stack and
// discovered-ID set are kept on the Manager.
func TestRestoreAllocations(t *testing.T) {
	h := hostCostTree(t, DefaultConfig())
	counts, pages := h.tree.Counts(), h.tree.TotalPMOPages()
	for i := 0; i < 2; i++ {
		h.crash()
		h.restore(t)
	}
	allocs := testing.AllocsPerRun(20, func() {
		h.crash()
		h.restore(t)
	})
	if allocs > 3 {
		t.Errorf("a warm restore allocates %.1f times, want at most 3", allocs)
	}
	// The restores measured rebuilt the whole tree.
	if got := h.tree.Counts(); got != counts {
		t.Errorf("restored %v, tree held %v", got, counts)
	}
	if got := h.tree.TotalPMOPages(); got != pages {
		t.Errorf("restored %d pages, tree held %d", got, pages)
	}
}

// BenchmarkCleanRound times one warm clean checkpoint round of the
// host-cost tree on 4 lanes, under both walks.
func BenchmarkCleanRound(b *testing.B) {
	for _, v := range walkVariants {
		b.Run(v.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.ParallelWalk = v.parallel
			h := hostCostTree(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.checkpoint()
			}
		})
	}
}

// BenchmarkRestore crashes and restores the host-cost tree. Every page is
// unchanged since its checksum was recorded, so no restore read rehashes a
// page.
func BenchmarkRestore(b *testing.B) {
	h := hostCostTree(b, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.crash()
		h.restore(b)
	}
}
