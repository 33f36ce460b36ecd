// Package faultplane is the deterministic fault-injection engine behind
// every crash campaign. It owns the skeleton the six legacy silos each
// reimplemented: seeded RNG stream splitting, the per-seed round loop,
// injection and recovery accounting, uniform post-crash oracle runs, and
// composition — stacking an overlay domain's faults and oracles onto a
// base domain so one run injects, say, media rot at a reshard epoch's
// crash boundary.
//
// A Domain builds a World per seed; the World's Round method performs one
// injection round (drive the workload, inject the fault, crash, recover)
// drawing all randomness from the engine-provided stream. After every
// round that fired, the engine runs the world's oracle registry — the
// domain's full invariant set — and aborts the campaign on the first
// conviction. The engine never draws from the stream itself, so a domain's
// injection schedule is a pure function of (seed, domain choreography):
// the migration goldens in internal/crashfuzz pin that bit-for-bit.
package faultplane

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// ErrStopSeed is returned by a World.Round to end the current seed early
// without failing the campaign — e.g. the media domain's designed loud
// total loss after both commit-record copies were separately damaged.
var ErrStopSeed = errors.New("faultplane: stop seed")

// Spec parameterizes one campaign run on the engine.
type Spec struct {
	// Seeds are the campaign seeds; each gets its own world and stream.
	Seeds []uint64
	// RoundsPerSeed is how many injection rounds to attempt per seed.
	RoundsPerSeed int
	// Obs, when set, records engine-level faultplane.* metrics and a
	// per-crash trace instant.
	Obs *obs.Observer
}

// Domain is a fault domain: a kind of world to build and a choreography of
// faults to inject into it.
type Domain interface {
	// Name identifies the domain in stats, traces, and errors.
	Name() string
	// StreamLabel is the domain's RNG split label (see SplitSeed); the
	// empty label is the campaign's root stream.
	StreamLabel() string
	// Build constructs the per-seed world. Build may draw from rng (the
	// draws are part of the deterministic schedule).
	Build(seed uint64, rng *rand.Rand) (World, error)
}

// World is one seed's live state: machine(s), workload handles, and the
// per-seed slice of the domain's Result accounting.
type World interface {
	// Round performs one injection round and reports whether a fault
	// fired. Rounds that return ErrStopSeed end the seed cleanly; any
	// other error aborts the campaign.
	Round(rng *rand.Rand, round int) (fired bool, err error)
	// Oracles is the world's invariant registry, built once; the engine
	// runs it after every fired round.
	Oracles() *Registry
	// Finish folds end-of-seed accounting and runs final invariants
	// (e.g. allocator checks). Called once per seed on the success path.
	Finish() error
}

// PostRounder is implemented by worlds that need un-armed progress between
// injections (fleet traffic reaching checkpoints, the cluster breathing
// between epochs). PostRound runs after the round's oracles pass.
type PostRounder interface {
	PostRound(rng *rand.Rand) error
}

// PreCrashHooker is implemented by worlds that can run composition hooks
// at the crash boundary — after the round's fault countdown elapsed,
// before the failure is injected and recovery begins. Overlays use it to
// place their faults exactly where recovery will reveal them.
type PreCrashHooker interface {
	AddPreCrash(fn func() error)
}

// Clocked is implemented by worlds that can report simulated time; the
// engine stamps per-crash trace instants with it.
type Clocked interface {
	Now() simclock.Time
}

// Stats is the engine's campaign accounting, uniform across domains. It is
// what the CI campaign matrix serializes as campaign-stats.json.
type Stats struct {
	// Domain is the (possibly composed) domain name.
	Domain string `json:"domain"`
	// Seeds and Rounds count worlds built and rounds attempted.
	Seeds  int `json:"seeds"`
	Rounds int `json:"rounds"`
	// Injections counts rounds whose fault actually fired; Recoveries
	// counts those that then passed the full oracle set.
	Injections int `json:"injections"`
	Recoveries int `json:"recoveries"`
	// Comparisons counts individual oracle checks run.
	Comparisons uint64 `json:"comparisons"`
	// Convictions counts oracle failures (0 unless the campaign errored —
	// a conviction always aborts).
	Convictions int `json:"convictions"`
	// Oracles lists the registered oracle names in run order.
	Oracles []string `json:"oracles,omitempty"`
}

// RunCampaign executes spec against the domain. The returned Stats are
// valid (partial) even when err != nil; the first oracle conviction or
// round error aborts the campaign, matching the legacy silo contract that
// a returned nil error means zero violations.
func RunCampaign(spec Spec, d Domain) (Stats, error) {
	st := Stats{Domain: d.Name()}
	start := time.Now()
	defer func() { emitStats(&st, time.Since(start)) }()
	var mRounds, mInjections, mRecoveries, mChecks, mConvictions *obs.Counter
	if spec.Obs.MetricsOn() {
		reg := spec.Obs.Metrics
		mRounds = reg.Counter("faultplane.rounds")
		mInjections = reg.Counter("faultplane.injections")
		mRecoveries = reg.Counter("faultplane.recoveries")
		mChecks = reg.Counter("faultplane.oracle_checks")
		mConvictions = reg.Counter("faultplane.convictions")
	}
	for _, seed := range spec.Seeds {
		rng := Stream(seed, d.StreamLabel())
		w, err := d.Build(seed, rng)
		if err != nil {
			return st, fmt.Errorf("seed %d: build: %w", seed, err)
		}
		st.Seeds++
		if st.Oracles == nil {
			st.Oracles = w.Oracles().Names()
		}
		for r := 0; r < spec.RoundsPerSeed; r++ {
			fired, rerr := w.Round(rng, r)
			stop := errors.Is(rerr, ErrStopSeed)
			if rerr != nil && !stop {
				return st, fmt.Errorf("seed %d: round %d: %w", seed, r, rerr)
			}
			st.Rounds++
			if mRounds != nil {
				mRounds.Inc()
			}
			if fired {
				st.Injections++
				if mInjections != nil {
					mInjections.Inc()
				}
				if spec.Obs.TraceOn() {
					var now simclock.Time
					if c, ok := w.(Clocked); ok {
						now = c.Now()
					}
					spec.Obs.Trace.Instant(0, now, "faultplane", "crash",
						obs.Arg{Key: "domain", Str: d.Name(), IsStr: true},
						obs.Arg{Key: "seed", Int: int64(seed)},
						obs.Arg{Key: "round", Int: int64(r)})
				}
				ran, oerr := w.Oracles().Check()
				st.Comparisons += uint64(ran)
				if mChecks != nil {
					mChecks.Add(uint64(ran))
				}
				if oerr != nil {
					st.Convictions++
					if mConvictions != nil {
						mConvictions.Inc()
					}
					return st, fmt.Errorf("seed %d: round %d: %w", seed, r, oerr)
				}
				st.Recoveries++
				if mRecoveries != nil {
					mRecoveries.Inc()
				}
			}
			if stop {
				break
			}
			if pr, ok := w.(PostRounder); ok {
				if perr := pr.PostRound(rng); perr != nil {
					return st, fmt.Errorf("seed %d: round %d: post: %w", seed, r, perr)
				}
			}
		}
		if err := w.Finish(); err != nil {
			return st, fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return st, nil
}

// CatchCrash runs fn, converting an injected power failure (which surfaces
// as a mem.CrashError panic) into a clean fired=true. Any other panic
// propagates.
func CatchCrash(fn func() error) (fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(mem.CrashError); !ok {
				panic(r)
			}
			fired, err = true, nil
		}
	}()
	return false, fn()
}
