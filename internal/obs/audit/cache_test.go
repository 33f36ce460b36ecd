package audit_test

import (
	"fmt"
	"math/rand"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
)

// TestDigestCacheMatchesFresh checks the backup digests' record-hash cache
// (caps.ORoot.Digest) against a fresh computation. A random schedule on a
// deferred-publication machine changes thread registers, cap groups, IPC
// buffers and pages, commits one or several rounds at a time, prepares a
// round and digests it before publishing it or crashing it and re-running
// its version with other registers, crashes inside checkpoints and inside
// restores, swaps pages out and in, scrubs, and builds standbys with
// InstallImage. After every step it computes BackupDigest and
// RestorableDigest with the caches as the schedule left them, clears every
// root's cache, computes both again and requires equal values. The machine
// runs without the auditor, so only these checks fill the caches, and a
// step that commits several rounds, or re-runs a prepared version after a
// restore, meets the cache with what the previous step left in it.
func TestDigestCacheMatchesFresh(t *testing.T) {
	for _, mode := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			cov := runDigestCacheSchedule(t, mode, 1)
			if cov.multiRound == 0 || cov.reruns == 0 || cov.published == 0 || cov.checkpointCrashes == 0 ||
				cov.restoreCrashes == 0 || cov.swapOuts == 0 || cov.swapIns == 0 || cov.scrubs == 0 ||
				cov.standbys == 0 || cov.capGroups == 0 || cov.ipc == 0 {
				t.Errorf("the schedule missed a path: %+v", cov)
			}
			t.Logf("%+v", cov)
		})
	}
}

// digestCacheCoverage counts the paths one schedule took.
type digestCacheCoverage struct {
	multiRound        int    // steps that committed several rounds
	reruns            int    // digested prepares crashed and re-run at the same version
	published         int    // digested prepares published
	checkpointCrashes int    // power failures inside a checkpoint
	restoreCrashes    int    // power failures inside a restore
	swapOuts, swapIns uint64 // pages evicted and swapped back in
	scrubs            int    // media-scrub passes
	standbys          int    // standbys built by InstallImage
	capGroups         int    // processes created or exited
	ipc               int    // IPC calls
}

// checkDigestCache fails the test unless m's backup digests computed with
// its caches as they stand equal the digests computed after clearing every
// root's cache, and returns the backup digest.
func checkDigestCache(t *testing.T, where string, m *kernel.Machine) uint64 {
	t.Helper()
	b, r := audit.BackupDigest(m.Ckpt, m.Memory), audit.RestorableDigest(m.Ckpt, m.Memory)
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) { r.Digest = caps.RecordDigest{} })
	fb, fr := audit.BackupDigest(m.Ckpt, m.Memory), audit.RestorableDigest(m.Ckpt, m.Memory)
	if b != fb || r != fr {
		t.Fatalf("%s: cached digests (backup %#x, restorable %#x), fresh (%#x, %#x)", where, b, r, fb, fr)
	}
	return b
}

func runDigestCacheSchedule(t *testing.T, mode mem.PersistMode, seed int64) digestCacheCoverage {
	const threads, pages = 4, 16
	cfg := kernel.DefaultConfig()
	cfg.Cores = 2
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	cfg.Seed = uint64(seed)
	cfg.Mem.Persist = mode
	cfg.Mem.CrashSeed = uint64(seed)
	cfg.Checkpoint.DeferCommitPublish = true
	m := kernel.New(cfg)
	app, err := m.NewProcess("app", threads)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.NewProcess("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := app.Mmap(pages, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	app.Connect(srv)
	app.NewNotification()

	rng := rand.New(rand.NewSource(seed))
	var cov digestCacheCoverage
	var extras []string
	run := func(th int, fn func(e *kernel.Env) error) {
		t.Helper()
		if _, err := m.Run(app, app.Thread(th), fn); err != nil {
			t.Fatal(err)
		}
	}
	writePage := func() {
		i, off, v := uint64(rng.Intn(pages)), uint64(rng.Intn(mem.PageSize/8))*8, rng.Uint64()
		run(rng.Intn(threads), func(e *kernel.Env) error { return e.WriteU64(va+i*mem.PageSize+off, v) })
	}
	setRegisters := func(th int) {
		v := rng.Uint64()
		run(th, func(e *kernel.Env) error {
			e.Touch(func(c *caps.Context) {
				c.PC, c.SP = v, ^v
				for k := range c.R {
					c.R[k] = v + uint64(k)
				}
			})
			return nil
		})
	}
	ipcCall := func() {
		conn := app.Group.Find(caps.KindIPCConn).Obj.(*caps.IPCConn)
		msg := []byte(fmt.Sprintf("msg %x", rng.Uint64()))
		run(0, func(e *kernel.Env) error { e.IPCCall(conn, msg); return nil })
		cov.ipc++
	}
	commit := func() {
		t.Helper()
		m.TakeCheckpoint()
		if _, err := m.PublishCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// restore restores the crashed machine, crashing the restore itself k
	// persistence events in when k > 0.
	restore := func(k uint64) {
		t.Helper()
		if k > 0 {
			m.Memory.ArmCrashAfter(k)
			fired, err := faultplane.CatchCrash(m.Restore)
			m.Memory.DisarmCrash()
			if err != nil {
				t.Fatal(err)
			}
			if !fired {
				return
			}
			cov.restoreCrashes++
			m.Crash()
		}
		if err := m.Restore(); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 400; step++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 25:
			what = "page write"
			writePage()
		case r < 35:
			what = "register update"
			setRegisters(rng.Intn(threads))
		case r < 43:
			what = "IPC and notification"
			ipcCall()
			if rng.Intn(2) == 0 {
				noti := app.Group.Find(caps.KindNotification).Obj.(*caps.Notification)
				run(0, func(e *kernel.Env) error { e.Signal(noti); return nil })
			}
		case r < 48:
			what = "process created or exited" // the root cap group changes
			if len(extras) > 0 && rng.Intn(2) == 0 {
				name := extras[len(extras)-1]
				extras = extras[:len(extras)-1]
				if m.Process(name) != nil {
					if err := m.ExitProcess(name); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				name := fmt.Sprintf("extra-%d", step)
				if _, err := m.NewProcess(name, 1); err != nil {
					t.Fatal(err)
				}
				extras = append(extras, name)
			}
			cov.capGroups++
		case r < 60:
			what = "one round"
			commit()
		case r < 68:
			what = "several rounds"
			for n := 2 + rng.Intn(3); n > 0; n-- {
				setRegisters(rng.Intn(threads))
				writePage()
				ipcCall()
				commit()
			}
			cov.multiRound++
		case r < 76:
			what = "prepare published"
			if !m.Ckpt.HasCheckpoint() {
				commit()
			}
			for th := 0; th < threads; th++ {
				setRegisters(th)
			}
			m.TakeCheckpoint()
			v := m.Ckpt.PreparedVersion()
			checkDigestCache(t, fmt.Sprintf("step %d (prepared)", step), m)
			if rng.Intn(2) == 0 {
				if _, err := m.PublishCheckpoint(); err != nil {
					t.Fatal(err)
				}
				cov.published++
				break
			}
			what = "prepare crashed and re-run"
			m.Crash()
			restore(0)
			for th := 0; th < threads; th++ {
				setRegisters(th)
			}
			commit()
			if got := m.Ckpt.CommittedVersion(); got != v {
				t.Fatalf("step %d: the re-run committed v%d, want v%d", step, got, v)
			}
			cov.reruns++
		case r < 82:
			what = "crash inside a checkpoint"
			if !m.Ckpt.HasCheckpoint() {
				continue
			}
			m.Memory.ArmCrashAfter(uint64(rng.Intn(120) + 1))
			fired, err := faultplane.CatchCrash(func() error {
				m.TakeCheckpoint()
				_, err := m.PublishCheckpoint()
				return err
			})
			m.Memory.DisarmCrash()
			if err != nil {
				t.Fatal(err)
			}
			if fired {
				cov.checkpointCrashes++
				m.Crash()
				restore(0)
			}
		case r < 87:
			what = "crash, maybe inside the restore"
			if !m.Ckpt.HasCheckpoint() {
				continue
			}
			m.Crash()
			var k uint64
			if rng.Intn(2) == 0 {
				k = uint64(rng.Intn(24) + 1)
			}
			restore(k)
		case r < 91:
			what = "swap-out"
			if !m.Ckpt.HasCheckpoint() {
				continue
			}
			n, err := m.EvictColdPages(rng.Intn(6) + 1)
			if err != nil {
				t.Fatal(err)
			}
			cov.swapOuts += uint64(n)
		case r < 94:
			what = "swap-in" // reading every page swaps each back in
			before := m.Ckpt.SwapStats().SwappedIn
			run(0, func(e *kernel.Env) error {
				for i := uint64(0); i < pages; i++ {
					if _, err := e.ReadU64(va + i*mem.PageSize); err != nil {
						return err
					}
				}
				return nil
			})
			cov.swapIns += m.Ckpt.SwapStats().SwappedIn - before
		case r < 97:
			what = "scrub"
			m.Scrub()
			cov.scrubs++
		default:
			what = "standby"
			if !m.Ckpt.HasCheckpoint() {
				continue
			}
			img := &checkpoint.ReplImage{}
			m.Ckpt.CaptureReplDelta(img, true)
			sb := kernel.NewStandby(cfg)
			if err := sb.Ckpt.InstallImage(&sb.Cores[0].Lane, img); err != nil {
				t.Fatal(err)
			}
			want := audit.BackupDigest(m.Ckpt, m.Memory)
			if got := checkDigestCache(t, fmt.Sprintf("step %d (standby)", step), sb); got != want {
				t.Fatalf("step %d: standby backup digest %#x, primary %#x", step, got, want)
			}
			sb.Crash()
			if err := sb.Restore(); err != nil {
				t.Fatal(err)
			}
			checkDigestCache(t, fmt.Sprintf("step %d (restored standby)", step), sb)
			cov.standbys++
		}
		checkDigestCache(t, fmt.Sprintf("step %d (%s)", step, what), m)
	}
	return cov
}
