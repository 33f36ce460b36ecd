package faultplane

import "math/rand"

// Hooks is the composition plumbing every world shares: the invariant
// registry the engine runs after each injected crash, and the pre-crash
// hooks overlays add at the crash boundary. A world embeds Hooks to satisfy
// World.Oracles and PreCrashHooker, and calls RunPreCrash after its fault
// countdown elapsed, immediately before the failure lands.
type Hooks struct {
	oracles  *Registry
	preCrash []func() error
}

// Oracles returns the world's registry, created empty on first use.
func (h *Hooks) Oracles() *Registry {
	if h.oracles == nil {
		h.oracles = NewRegistry()
	}
	return h.oracles
}

// AddPreCrash registers a composition hook run at the crash boundary.
func (h *Hooks) AddPreCrash(fn func() error) { h.preCrash = append(h.preCrash, fn) }

// RunPreCrash runs the pre-crash hooks in registration order and stops at
// the first error.
func (h *Hooks) RunPreCrash() error {
	for _, fn := range h.preCrash {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// NewDomain returns the Domain named name that draws from the label stream
// and builds each seed's world with build.
func NewDomain(name, label string, build func(seed uint64, rng *rand.Rand) (World, error)) Domain {
	return &domain{name: name, label: label, build: build}
}

type domain struct {
	name, label string
	build       func(seed uint64, rng *rand.Rand) (World, error)
}

func (d *domain) Name() string        { return d.name }
func (d *domain) StreamLabel() string { return d.label }

func (d *domain) Build(seed uint64, rng *rand.Rand) (World, error) {
	return d.build(seed, rng)
}
