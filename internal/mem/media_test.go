package mem

import (
	"bytes"
	"errors"
	"testing"

	"treesls/internal/simclock"
)

func mediaTestMemory(t *testing.T, cfg Config) *Memory {
	t.Helper()
	if cfg.NVMFrames == 0 {
		cfg.NVMFrames = 64
	}
	if cfg.DRAMFrames == 0 {
		cfg.DRAMFrames = 16
	}
	return New(cfg, simclock.DefaultCostModel())
}

func TestPoisonCheckReadAndExplicitClear(t *testing.T) {
	m := mediaTestMemory(t, Config{})
	p := PageID{Kind: KindNVM, Frame: 7}
	m.WriteAt(p, 0, bytes.Repeat([]byte{0xAB}, 256))

	m.InjectPoison(p, 128, LineSize, 42)
	if !m.Poisoned(p, 128, 8) {
		t.Fatal("injected line not reported poisoned")
	}
	if m.Poisoned(p, 0, LineSize) {
		t.Fatal("untouched line reported poisoned")
	}
	err := m.CheckRead(p, 0, 256)
	var me MediaError
	if !errors.As(err, &me) {
		t.Fatalf("CheckRead over poisoned span: got %v, want MediaError", err)
	}
	if m.Stats.PoisonedReads != 1 {
		t.Fatalf("PoisonedReads = %d, want 1", m.Stats.PoisonedReads)
	}
	if err := m.CheckRead(p, 0, LineSize); err != nil {
		t.Fatalf("CheckRead of clean span: %v", err)
	}

	m.ClearPoison(p, 0, PageSize)
	if m.PoisonedLineCount() != 0 || m.Stats.PoisonClears != 1 {
		t.Fatalf("after ClearPoison: live=%d clears=%d", m.PoisonedLineCount(), m.Stats.PoisonClears)
	}
}

func TestFullLineWriteClearsPoisonPartialDoesNot(t *testing.T) {
	m := mediaTestMemory(t, Config{})
	p := PageID{Kind: KindNVM, Frame: 3}
	m.InjectPoison(p, 0, 2*LineSize, 1)

	// A sub-line store cannot re-establish ECC: poison stays.
	m.WriteAt(p, 0, make([]byte, 8))
	if !m.Poisoned(p, 0, LineSize) {
		t.Fatal("partial write cleared poison")
	}
	// A full-line store does.
	m.WriteAt(p, 0, make([]byte, LineSize))
	if m.Poisoned(p, 0, LineSize) {
		t.Fatal("full-line write left line poisoned")
	}
	if !m.Poisoned(p, LineSize, LineSize) {
		t.Fatal("neighboring poisoned line was cleared")
	}
	// A whole-page copy heals everything (recycled-frame path).
	src := PageID{Kind: KindNVM, Frame: 4}
	m.CopyPage(p, src)
	if m.PoisonedLineCount() != 0 {
		t.Fatalf("CopyPage left %d poisoned lines", m.PoisonedLineCount())
	}
}

func TestRotIsSilentButChangesBytes(t *testing.T) {
	m := mediaTestMemory(t, Config{})
	p := PageID{Kind: KindNVM, Frame: 5}
	orig := bytes.Repeat([]byte{0x5A}, LineSize)
	m.WriteAt(p, 0, orig)

	m.InjectRot(p, 0, LineSize, 99)
	if m.Poisoned(p, 0, LineSize) {
		t.Fatal("rot must not set the poison flag")
	}
	if err := m.CheckRead(p, 0, LineSize); err != nil {
		t.Fatalf("CheckRead must not detect silent rot: %v", err)
	}
	got := make([]byte, LineSize)
	m.ReadAt(p, 0, got)
	if bytes.Equal(got, orig) {
		t.Fatal("rot did not change the line content")
	}
	if m.Stats.RottedLines != 1 {
		t.Fatalf("RottedLines = %d, want 1", m.Stats.RottedLines)
	}
}

// Rot hits the DIMM, so under ADR a line that is later dropped from the
// write buffer must revert to *damaged* durable bytes, never resurrect
// clean ones.
func TestRotScramblesWriteBufferShadow(t *testing.T) {
	m := mediaTestMemory(t, Config{Persist: ModeADR, CrashSeed: 7})
	p := PageID{Kind: KindNVM, Frame: 9}
	live := bytes.Repeat([]byte{0x11}, LineSize)
	m.WriteAt(p, 0, live) // unfenced: line sits in the write buffer

	m.InjectRot(p, 0, LineSize, 1234)
	m.Crash() // line persists, drops, or tears — all outcomes are scrambled

	got := make([]byte, LineSize)
	m.ReadAt(p, 0, got)
	if bytes.Equal(got, live) {
		t.Fatal("crash resurrected pre-rot content")
	}
}

func TestCrashFaultInjectionDeterministicAndProtected(t *testing.T) {
	build := func() *Memory {
		m := mediaTestMemory(t, Config{Media: MediaFaultConfig{CrashFaults: 4, Seed: 77}})
		m.SetProtectedFrames(2)
		// Materialize a spread of frames, including the protected ones.
		for _, f := range []uint32{0, 1, 2, 5, 9, 13} {
			m.WriteAt(PageID{Kind: KindNVM, Frame: f}, 0, bytes.Repeat([]byte{byte(f)}, 128))
		}
		return m
	}
	a, b := build(), build()
	a.Crash()
	a.Crash()
	b.Crash()
	b.Crash()
	if a.Stats.PoisonedLines == 0 {
		t.Fatal("crash-time injection poisoned nothing")
	}
	if a.Stats.PoisonedLines != b.Stats.PoisonedLines || a.PoisonedLineCount() != b.PoisonedLineCount() {
		t.Fatalf("injection not deterministic: %d/%d vs %d/%d",
			a.Stats.PoisonedLines, a.PoisonedLineCount(), b.Stats.PoisonedLines, b.PoisonedLineCount())
	}
	for f, mask := range a.poison {
		if f < 2 {
			t.Fatalf("random injection hit protected frame %d", f)
		}
		if b.poison[f] != mask {
			t.Fatalf("poison sets diverge on frame %d: %#x vs %#x", f, mask, b.poison[f])
		}
	}
	// Same config, different seed: damage pattern should differ.
	c := mediaTestMemory(t, Config{Media: MediaFaultConfig{CrashFaults: 4, Seed: 78}})
	c.SetProtectedFrames(2)
	for _, f := range []uint32{0, 1, 2, 5, 9, 13} {
		c.WriteAt(PageID{Kind: KindNVM, Frame: f}, 0, bytes.Repeat([]byte{byte(f)}, 128))
	}
	c.Crash()
	c.Crash()
	same := true
	for f, mask := range a.poison {
		if c.poison[f] != mask {
			same = false
		}
	}
	if same && len(a.poison) == len(c.poison) {
		t.Fatal("different seeds produced identical poison sets")
	}
}

func TestMediaNoopsOnDRAMAndNilSpans(t *testing.T) {
	m := mediaTestMemory(t, Config{})
	d := m.AllocDRAM()
	m.InjectPoison(d, 0, LineSize, 3)
	m.InjectRot(d, 0, LineSize, 3)
	if m.Poisoned(d, 0, LineSize) || m.PoisonedLineCount() != 0 {
		t.Fatal("DRAM page was poisoned")
	}
	if err := m.CheckRead(d, 0, LineSize); err != nil {
		t.Fatalf("CheckRead on DRAM: %v", err)
	}
	p := PageID{Kind: KindNVM, Frame: 1}
	m.InjectPoison(p, 0, 0, 3) // empty span
	if m.PoisonedLineCount() != 0 {
		t.Fatal("empty span poisoned a line")
	}
}
