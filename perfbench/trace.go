package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanTracer is the benchmark's own timing channel. It implements
// obs.Tracer, so it plugs into the program's public Tracer hooks
// (sim.Options, congest.Config, serve.Config) and timestamps every Phase
// and Round event on arrival; the program's deterministic ldc-trace/v1
// stream is untouched because that stream is a different Tracer. The
// benchmark wraps its calls into each layer in spans; the Phase events
// that arrive inside a span become its child spans.
//
// A nil *spanTracer is valid and records nothing: untraced runs pass
// (*spanTracer)(nil) around and hand the program a nil obs.Tracer.
type spanTracer struct {
	origin time.Time
	scope  string // scope of the spans opened next; see enter
	mu     sync.Mutex
	events []event
	spans  []span
}

// event is one Phase or Round callback from the program.
type event struct {
	at    time.Duration
	phase string // "" for a Round event
	round int
	attrs obs.Attrs
}

// span is one benchmark-owned interval around a call into a layer.
type span struct {
	scope, name string
	start, end  time.Duration
	// first and last bound the events that arrived inside the span.
	first, last int
}

func newSpanTracer() *spanTracer { return &spanTracer{origin: time.Now()} }

// obs returns the tracer to hand to the program: a true nil interface
// when t is nil, so the program's nil checks skip all tracing work.
func (t *spanTracer) obs() obs.Tracer {
	if t == nil {
		return nil
	}
	return t
}

func (t *spanTracer) now() time.Duration { return time.Since(t.origin) }

// Start implements obs.Tracer.
func (t *spanTracer) Start(obs.RunInfo) {}

// End implements obs.Tracer.
func (t *spanTracer) End(obs.Totals) {}

// Phase implements obs.Tracer.
func (t *spanTracer) Phase(name string, attrs obs.Attrs) {
	at := t.now()
	t.mu.Lock()
	t.events = append(t.events, event{at: at, phase: name, attrs: attrs})
	t.mu.Unlock()
}

// Round implements obs.Tracer.
func (t *spanTracer) Round(r obs.RoundInfo) {
	at := t.now()
	t.mu.Lock()
	t.events = append(t.events, event{at: at, round: r.Round})
	t.mu.Unlock()
}

// enter sets the scope of the spans opened next: a family name, "setup",
// "flood" or "serve". Spans never nest; a scope groups sibling spans.
func (t *spanTracer) enter(scope string) {
	if t != nil {
		t.scope = scope
	}
}

// span runs f inside a benchmark span named name in the current scope.
// With a nil tracer it only runs f.
func (t *spanTracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	t.mu.Lock()
	s := span{scope: t.scope, name: name, start: t.now(), first: len(t.events)}
	t.mu.Unlock()
	err := f()
	t.mu.Lock()
	s.end, s.last = t.now(), len(t.events)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

// spanCount returns the number of spans recorded so far.
func (t *spanTracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanTime sums the durations of the spans recorded since spanCount
// returned from.
func (t *spanTracer) spanTime(from int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans[from:] {
		d += s.end - s.start
	}
	return d
}

// phaseLevel gives the nesting depth of each Phase event the program
// emits. Phase events are transitions without an end, so a phase lasts
// until the next event at the same or a shallower level, or until its
// enclosing benchmark span ends; a deeper event inside it is its child.
// The depths follow the call structure: the Theorem 1.4 driver runs arb
// stages, whose batches run OLDC solves, whose γ-class selection runs the
// basic algorithm.
func phaseLevel(name string) int {
	switch {
	case strings.HasPrefix(name, "congest/"), strings.HasPrefix(name, "serve/"),
		strings.HasPrefix(name, "maus21/"), strings.HasPrefix(name, "fk24/"),
		name == "oldc/repair", name == "oldc/greedy-sweep":
		return 1
	case name == "arb/stage", name == "arb/fallback":
		return 2
	case name == "arb/batch":
		return 3
	case strings.HasPrefix(name, "csr/"):
		return 4
	case name == "oldc/class-selection", name == "oldc/two-phase":
		return 5
	case name == "oldc/basic":
		return 6
	}
	return 7
}

// profile is the analysis of a traced run: self time per (scope, name),
// where name is a benchmark span name or a Phase event name, plus the
// round durations seen inside each scope.
type profile struct {
	self   map[[2]string]time.Duration
	rounds map[string][]float64  // round durations in ms per scope
	phases map[[2]string][]event // phase events per (scope, name)
}

// analyze turns the recorded spans and events into self times. A span's
// self time is its duration minus its direct children; the self times of
// a span and all its descendants therefore sum to the span's duration.
func (t *spanTracer) analyze() profile {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := profile{
		self:   map[[2]string]time.Duration{},
		rounds: map[string][]float64{},
		phases: map[[2]string][]event{},
	}
	for _, s := range t.spans {
		dur := s.end - s.start
		// Phase children: each ends at the next event at its level or
		// shallower, or at the span end.
		type open struct {
			name  string
			level int
			start time.Duration
			child time.Duration
		}
		var stack []open
		var direct time.Duration // time covered by top-level phases
		closeTop := func(at time.Duration) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			d := at - top.start
			p.self[[2]string{s.scope, top.name}] += d - top.child
			if len(stack) > 0 {
				stack[len(stack)-1].child += d
			} else {
				direct += d
			}
		}
		lastRound, lastAt := -2, time.Duration(0)
		for _, e := range t.events[s.first:s.last] {
			if e.phase == "" {
				if e.round == lastRound+1 {
					p.rounds[s.scope] = append(p.rounds[s.scope], float64(e.at-lastAt)/1e6)
				}
				lastRound, lastAt = e.round, e.at
				continue
			}
			lastRound = -2
			lv := phaseLevel(e.phase)
			for len(stack) > 0 && stack[len(stack)-1].level >= lv {
				closeTop(e.at)
			}
			stack = append(stack, open{name: e.phase, level: lv, start: e.at})
			k := [2]string{s.scope, e.phase}
			p.phases[k] = append(p.phases[k], e)
		}
		for len(stack) > 0 {
			closeTop(s.end)
		}
		p.self[[2]string{s.scope, s.name}] += dur - direct
	}
	return p
}

// scopeSelf sums the self times of every name in scope that starts with
// prefix.
func (p profile) scopeSelf(scope, prefix string) time.Duration {
	var d time.Duration
	for k, v := range p.self {
		if k[0] == scope && strings.HasPrefix(k[1], prefix) {
			d += v
		}
	}
	return d
}
