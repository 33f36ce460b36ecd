package faultplane

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// fakeWorld scripts per-round outcomes for engine tests.
type fakeWorld struct {
	rounds    []roundScript
	oracles   *Registry
	finishErr error

	roundCalls  int
	postCalls   int
	finishCalls int
	preCrash    []func() error
	drawn       []int64
}

type roundScript struct {
	fired bool
	err   error
}

func (w *fakeWorld) Round(rng *rand.Rand, round int) (bool, error) {
	w.roundCalls++
	w.drawn = append(w.drawn, rng.Int63())
	if round < len(w.rounds) {
		s := w.rounds[round]
		return s.fired, s.err
	}
	return true, nil
}

func (w *fakeWorld) Oracles() *Registry { return w.oracles }

func (w *fakeWorld) Finish() error {
	w.finishCalls++
	return w.finishErr
}

func (w *fakeWorld) PostRound(rng *rand.Rand) error {
	w.postCalls++
	return nil
}

func (w *fakeWorld) AddPreCrash(fn func() error) { w.preCrash = append(w.preCrash, fn) }

func (w *fakeWorld) Now() simclock.Time { return simclock.Time(42) }

// fakeDomain hands out pre-built worlds per seed.
type fakeDomain struct {
	name     string
	label    string
	worlds   map[uint64]*fakeWorld
	buildErr error
}

func (d *fakeDomain) Name() string        { return d.name }
func (d *fakeDomain) StreamLabel() string { return d.label }
func (d *fakeDomain) Build(seed uint64, rng *rand.Rand) (World, error) {
	if d.buildErr != nil {
		return nil, d.buildErr
	}
	w, ok := d.worlds[seed]
	if !ok {
		w = &fakeWorld{oracles: NewRegistry()}
		if d.worlds == nil {
			d.worlds = map[uint64]*fakeWorld{}
		}
		d.worlds[seed] = w
	}
	if w.oracles == nil {
		w.oracles = NewRegistry()
	}
	return w, nil
}

func cleanWorld(rounds ...roundScript) *fakeWorld {
	reg := NewRegistry()
	reg.Register("always-ok", func() error { return nil })
	return &fakeWorld{rounds: rounds, oracles: reg}
}

func TestRunCampaignAccounting(t *testing.T) {
	w1 := cleanWorld(roundScript{fired: true}, roundScript{fired: false}, roundScript{fired: true})
	w2 := cleanWorld(roundScript{fired: true}, roundScript{fired: true}, roundScript{fired: true})
	d := &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{1: w1, 2: w2}}
	st, err := RunCampaign(Spec{Seeds: []uint64{1, 2}, RoundsPerSeed: 3}, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.Domain != "fake" || st.Seeds != 2 || st.Rounds != 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.Injections != 5 || st.Recoveries != 5 || st.Comparisons != 5 || st.Convictions != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(st.Oracles) != 1 || st.Oracles[0] != "always-ok" {
		t.Fatalf("oracles %v", st.Oracles)
	}
	// PostRound runs every round, fired or not.
	if w1.postCalls != 3 || w2.postCalls != 3 {
		t.Fatalf("post calls %d/%d", w1.postCalls, w2.postCalls)
	}
	if w1.finishCalls != 1 || w2.finishCalls != 1 {
		t.Fatalf("finish calls %d/%d", w1.finishCalls, w2.finishCalls)
	}
}

func TestRunCampaignConvictionAborts(t *testing.T) {
	reg := NewRegistry()
	reg.Register("ok", func() error { return nil })
	boom := errors.New("invariant broke")
	reg.Register("breaks", func() error { return boom })
	reg.Register("never-runs", func() error {
		t.Fatal("oracle after a conviction must not run")
		return nil
	})
	w := &fakeWorld{rounds: []roundScript{{fired: true}}, oracles: reg}
	d := &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{7: w}}
	st, err := RunCampaign(Spec{Seeds: []uint64{7}, RoundsPerSeed: 5}, d)
	if err == nil {
		t.Fatal("want conviction error")
	}
	var conv *Conviction
	if !errors.As(err, &conv) {
		t.Fatalf("error %v is not a *Conviction", err)
	}
	if conv.Oracle != "breaks" || !errors.Is(err, boom) {
		t.Fatalf("conviction %+v", conv)
	}
	if !strings.Contains(err.Error(), "seed 7: round 0:") {
		t.Fatalf("error lacks seed/round context: %v", err)
	}
	if st.Convictions != 1 || st.Recoveries != 0 || st.Injections != 1 || st.Comparisons != 2 {
		t.Fatalf("stats %+v", st)
	}
	if w.finishCalls != 0 {
		t.Fatal("Finish must not run after a conviction")
	}
}

func TestRunCampaignStopSeed(t *testing.T) {
	// Seed ends at round 1 with the fault not fired: oracles skipped,
	// Finish still runs, later rounds never attempted.
	w := cleanWorld(roundScript{fired: true}, roundScript{fired: false, err: ErrStopSeed})
	d := &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{3: w}}
	st, err := RunCampaign(Spec{Seeds: []uint64{3}, RoundsPerSeed: 10}, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.Injections != 1 || st.Recoveries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if w.finishCalls != 1 {
		t.Fatal("Finish must run after ErrStopSeed")
	}
	// ErrStopSeed with fired=true still runs the oracles before stopping.
	w2 := cleanWorld(roundScript{fired: true, err: ErrStopSeed})
	d2 := &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{4: w2}}
	st2, err := RunCampaign(Spec{Seeds: []uint64{4}, RoundsPerSeed: 10}, d2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Comparisons != 1 || st2.Rounds != 1 {
		t.Fatalf("stats %+v", st2)
	}
	if w2.postCalls != 0 {
		t.Fatal("PostRound must not run after ErrStopSeed")
	}
}

func TestRunCampaignErrors(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		d    Domain
		want string
	}{
		{"build", &fakeDomain{name: "fake", buildErr: boom}, "seed 5: build:"},
		{"round", &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{
			5: cleanWorld(roundScript{err: boom})}}, "seed 5: round 0:"},
		{"finish", &fakeDomain{name: "fake", worlds: map[uint64]*fakeWorld{
			5: func() *fakeWorld { w := cleanWorld(); w.finishErr = boom; return w }()}}, "seed 5:"},
	}
	for _, tc := range cases {
		_, err := RunCampaign(Spec{Seeds: []uint64{5}, RoundsPerSeed: 1}, tc.d)
		if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want wrapped %q", tc.name, err, tc.want)
		}
	}
}

type errPostWorld struct{ fakeWorld }

func (w *errPostWorld) PostRound(rng *rand.Rand) error { return errors.New("post boom") }

func TestRunCampaignPostRoundError(t *testing.T) {
	w := &errPostWorld{fakeWorld{rounds: []roundScript{{fired: false}}, oracles: NewRegistry()}}
	d := &hookedDomain{w: w}
	_, err := RunCampaign(Spec{Seeds: []uint64{9}, RoundsPerSeed: 2}, d)
	if err == nil || !strings.Contains(err.Error(), "round 0: post:") {
		t.Fatalf("error %v", err)
	}
}

type hookedDomain struct{ w World }

func (d *hookedDomain) Name() string        { return "hooked" }
func (d *hookedDomain) StreamLabel() string { return "" }
func (d *hookedDomain) Build(seed uint64, rng *rand.Rand) (World, error) {
	return d.w, nil
}

func TestRunCampaignObservability(t *testing.T) {
	o := obs.New()
	w := cleanWorld(roundScript{fired: true}, roundScript{fired: false})
	d := &fakeDomain{name: "observed", worlds: map[uint64]*fakeWorld{1: w}}
	st, err := RunCampaign(Spec{Seeds: []uint64{1}, RoundsPerSeed: 2, Obs: o}, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.Injections != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := o.Metrics.Counter("faultplane.rounds").Value(); got != 2 {
		t.Fatalf("rounds metric %d", got)
	}
	if got := o.Metrics.Counter("faultplane.injections").Value(); got != 1 {
		t.Fatalf("injections metric %d", got)
	}
	if got := o.Metrics.Counter("faultplane.recoveries").Value(); got != 1 {
		t.Fatalf("recoveries metric %d", got)
	}
	if got := o.Metrics.Counter("faultplane.oracle_checks").Value(); got != 1 {
		t.Fatalf("oracle_checks metric %d", got)
	}
	if o.Trace.Len() != 1 {
		t.Fatalf("trace events %d, want 1 crash instant", o.Trace.Len())
	}
	ev := o.Trace.Events()[0]
	if ev.Cat != "faultplane" || ev.Name != "crash" || ev.TS != simclock.Time(42) {
		t.Fatalf("trace event %+v", ev)
	}
}

func TestRunCampaignDeterministicStreams(t *testing.T) {
	// Same seeds, same domain: the engine hands Round the same stream, so
	// the draw sequence is bit-identical across runs — including when two
	// campaigns run concurrently (the -race CI job exercises this).
	run := func() [][]int64 {
		d := &fakeDomain{name: "det", label: "det", worlds: map[uint64]*fakeWorld{
			11: cleanWorld(), 12: cleanWorld(),
		}}
		if _, err := RunCampaign(Spec{Seeds: []uint64{11, 12}, RoundsPerSeed: 4}, d); err != nil {
			t.Fatal(err)
		}
		return [][]int64{d.worlds[11].drawn, d.worlds[12].drawn}
	}
	ch := make(chan [][]int64, 2)
	go func() { ch <- run() }()
	go func() { ch <- run() }()
	r1, r2 := <-ch, <-ch
	for i := range r1 {
		if len(r1[i]) != 4 || len(r2[i]) != 4 {
			t.Fatalf("draw counts %d/%d", len(r1[i]), len(r2[i]))
		}
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Fatalf("seed %d draw %d diverged: %d vs %d", i, j, r1[i][j], r2[i][j])
			}
		}
	}
}

func TestCatchCrash(t *testing.T) {
	fired, err := CatchCrash(func() error { panic(mem.CrashError{Event: 7}) })
	if !fired || err != nil {
		t.Fatalf("mem crash: fired=%v err=%v", fired, err)
	}
	boom := errors.New("plain")
	fired, err = CatchCrash(func() error { return boom })
	if fired || !errors.Is(err, boom) {
		t.Fatalf("error path: fired=%v err=%v", fired, err)
	}
	fired, err = CatchCrash(func() error { return nil })
	if fired || err != nil {
		t.Fatalf("clean path: fired=%v err=%v", fired, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unrelated panic must propagate")
		}
	}()
	_, _ = CatchCrash(func() error { panic("unrelated") })
}
