package faultplane

import (
	"errors"
	"math/rand"
	"testing"
)

// hookedWorld is a minimal real-style world: it embeds Hooks and runs the
// pre-crash hooks on every round, the way the crash domains do.
type hookedWorld struct {
	Hooks
	rounds int
}

func (w *hookedWorld) Round(rng *rand.Rand, round int) (bool, error) {
	w.rounds++
	return true, w.RunPreCrash()
}

func (w *hookedWorld) Finish() error { return nil }

func TestHooksRunInOrderAndStop(t *testing.T) {
	var h Hooks
	if h.Oracles() != h.Oracles() || h.Oracles().Len() != 0 {
		t.Fatal("Oracles must lazily create one empty registry")
	}
	var ran []int
	stop := errors.New("stop")
	h.AddPreCrash(func() error { ran = append(ran, 1); return nil })
	h.AddPreCrash(func() error { ran = append(ran, 2); return stop })
	h.AddPreCrash(func() error { ran = append(ran, 3); return nil })
	if err := h.RunPreCrash(); !errors.Is(err, stop) {
		t.Fatalf("RunPreCrash error %v, want %v", err, stop)
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("hooks ran %v, want [1 2]", ran)
	}
}

// TestNewDomainComposes builds a domain with NewDomain and composes an
// overlay onto it: the embedded Hooks must satisfy the engine's oracle and
// pre-crash-hook contracts without any per-world plumbing.
func TestNewDomainComposes(t *testing.T) {
	var built []uint64
	var w *hookedWorld
	d := NewDomain("hooked", "h", func(seed uint64, rng *rand.Rand) (World, error) {
		built = append(built, seed)
		w = &hookedWorld{}
		w.Oracles().Register("base", func() error { return nil })
		return w, nil
	})
	if d.Name() != "hooked" || d.StreamLabel() != "h" {
		t.Fatalf("domain %q/%q", d.Name(), d.StreamLabel())
	}
	ow := &fakeOverlayWorld{}
	st, err := RunCampaign(Spec{Seeds: []uint64{9}, RoundsPerSeed: 2},
		Compose(d, &fakeOverlay{name: "ov", world: ow}))
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 1 || built[0] != 9 || w.rounds != 2 {
		t.Fatalf("built %v, rounds %d", built, w.rounds)
	}
	if ow.preCrashes != 2 {
		t.Fatalf("overlay pre-crash ran %d times, want 2", ow.preCrashes)
	}
	if st.Injections != 2 || st.Comparisons != 4 || len(st.Oracles) != 2 || st.Oracles[1] != "ov-oracle" {
		t.Fatalf("stats %+v", st)
	}

	buildErr := errors.New("boot")
	bad := NewDomain("bad", "", func(uint64, *rand.Rand) (World, error) { return nil, buildErr })
	if _, err := RunCampaign(Spec{Seeds: []uint64{1}, RoundsPerSeed: 1}, bad); !errors.Is(err, buildErr) {
		t.Fatalf("build error %v, want %v", err, buildErr)
	}
}
