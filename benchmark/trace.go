package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"treesls/internal/simclock"
)

// probe times the calls the benchmark makes into the layers. A nil probe
// (the untraced run) does nothing, so end-to-end host time carries no
// tracing cost. A traced probe turns each call into a span with host and
// simulated start and end and the request or injection id it served; the
// spans stay in memory and are written as a Chrome trace at the end.
type probe struct {
	origin  time.Time
	spans   []span
	dropped int
	// host collects host ns per call by span name, for the per-layer
	// host-time metrics (kept even when the span list is full).
	host map[string][]float64
}

type span struct {
	name               string
	id                 int64
	hostStart, hostEnd time.Duration // since origin
	simStart, simEnd   simclock.Time
}

// maxSpans bounds the trace kept in memory; calls past it are still timed.
const maxSpans = 100_000

func newProbe() *probe {
	return &probe{origin: time.Now(), host: map[string][]float64{}}
}

// mark is an open span.
type mark struct {
	host time.Time
	sim  simclock.Time
}

// start opens a span at the current simulated instant clock() (not read
// when untraced).
func (p *probe) start(clock func() simclock.Time) mark {
	if p == nil {
		return mark{}
	}
	return mark{host: time.Now(), sim: clock()}
}

// stop closes the span opened by mk, naming it by what the call turned out
// to do, and returns its host duration (0 when untraced).
func (p *probe) stop(mk mark, name string, id int64, clock func() simclock.Time) time.Duration {
	if p == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(mk.host)
	p.host[name] = append(p.host[name], float64(d))
	if len(p.spans) >= maxSpans {
		p.dropped++
		return d
	}
	p.spans = append(p.spans, span{
		name: name, id: id,
		hostStart: mk.host.Sub(p.origin), hostEnd: now.Sub(p.origin),
		simStart: mk.sim, simEnd: clock(),
	})
	return d
}

// medianHost is the median host time of the calls with any of the given
// names, in ns (0 untraced).
func (p *probe) medianHost(names ...string) float64 {
	if p == nil {
		return 0
	}
	var xs []float64
	for _, n := range names {
		xs = append(xs, p.host[n]...)
	}
	return quantile(xs, 0.5)
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto). Every span appears twice: under process 1 on the host clock
// and under process 2 on the simulated clock, one thread per span name,
// so the same call can be read as host cost or as simulated latency.
func (p *probe) writeChrome(out io.Writer) error {
	w := bufio.NewWriter(out)
	tids := map[string]int{}
	var names []string
	for _, s := range p.spans {
		if _, ok := tids[s.name]; !ok {
			tids[s.name] = len(tids) + 1
			names = append(names, s.name)
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	fmt.Fprint(w, `{"ph":"M","pid":1,"name":"process_name","args":{"name":"host clock"}},`)
	fmt.Fprint(w, `{"ph":"M","pid":2,"name":"process_name","args":{"name":"simulated clock"}}`)
	for _, n := range names {
		for pid := 1; pid <= 2; pid++ {
			fmt.Fprintf(w, `,{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`, pid, tids[n], n)
		}
	}
	for _, s := range p.spans {
		args := fmt.Sprintf(`{"id":%d,"host_ns":%d,"sim_ns":%d}`, s.id,
			int64(s.hostEnd-s.hostStart), int64(s.simEnd-s.simStart))
		fmt.Fprintf(w, `,{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":%s}`,
			tids[s.name], s.name, float64(s.hostStart)/1e3, float64(s.hostEnd-s.hostStart)/1e3, args)
		fmt.Fprintf(w, `,{"ph":"X","pid":2,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":%s}`,
			tids[s.name], s.name, float64(s.simStart)/1e3, float64(s.simEnd-s.simStart)/1e3, args)
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
