package linial

import (
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Schedule is a precomputed sequence of polynomial reduction steps, shared
// global knowledge of all nodes (it only depends on m, β and the defect
// budget, not on the topology).
type Schedule struct {
	Steps   []stepParams
	Budgets []int // per-step allowed added defect (0 = proper step)
	Final   int   // number of colors after the last step
}

// ProperSchedule plans the iterated Linial reduction from m colors down to
// the fixpoint p² where p is the smallest prime > 2β.
func ProperSchedule(m, beta int) Schedule {
	p2 := SmallestPrimeAtLeast(2*beta + 1)
	target := p2 * p2
	s := Schedule{Final: m}
	guard := 0
	for s.Final > target {
		if guard++; guard > 64 {
			panic("linial: schedule failed to converge")
		}
		sp := chooseStep(s.Final, func(deg int) int { return beta * deg })
		s.Steps = append(s.Steps, sp)
		s.Budgets = append(s.Budgets, 0)
		s.Final = sp.q * sp.q
	}
	return s
}

// DefectiveSchedule plans a proper reduction to O(β²) colors followed by a
// single defective step with budget d, reaching O((β·D/(d+1))²) colors
// [Kuh09].
func DefectiveSchedule(m, beta, d int) Schedule {
	s := ProperSchedule(m, beta)
	sp := chooseStep(s.Final, func(deg int) int { return beta * deg / (d + 1) })
	if sp.q*sp.q < s.Final { // only add the step if it helps
		s.Steps = append(s.Steps, sp)
		s.Budgets = append(s.Budgets, d)
		s.Final = sp.q * sp.q
	}
	return s
}

// Rounds returns the number of communication rounds the schedule needs.
func (s Schedule) Rounds() int { return len(s.Steps) }

// maxRootTable bounds a step's root table at what its int32 offsets can
// address. Schedules built from realistic color spaces stay far below it.
const maxRootTable = 1<<31 - 1

// reduceAlg executes a Schedule: one broadcast round per step. Defects from
// defective steps accumulate; the realized coloring after the last step is
// (Σ budgets)-defective w.r.t. out-neighbors.
type reduceAlg struct {
	o        *graph.Oriented
	sched    Schedule
	class    []int // when non-nil, only same-class neighbors are opponents
	colors   []int
	next     []int
	table    *rootTable // the current step's root table
	m        int        // current color bound
	step     int
	started  bool
	finished bool
}

func newReduceAlg(o *graph.Oriented, init []int, m int, sched Schedule) *reduceAlg {
	colors := append([]int(nil), init...)
	return &reduceAlg{o: o, sched: sched, colors: colors, next: make([]int, len(init)),
		table: newRootTable(sched.Steps[0]), m: m}
}

func (a *reduceAlg) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.UintPayload{Value: uint64(a.colors[v]), Width: bitio.WidthFor(a.m)})
}

// reduceScratch is the per-callback scratch of one Inbox evaluation: the
// fast field evaluator holding the node's own digits, one neighbor's
// digits, the collected neighbor colors and the per-point collision
// counts. Callbacks for different nodes run concurrently, so scratch is
// pooled, never stored on the algorithm.
type reduceScratch struct {
	gf  gfStep
	nb  []uint64 // base-q digits of one neighbor color
	out []int    // out-neighbor colors this round
	cnt []int32  // colliding-neighbor count per evaluation point
}

var reduceScratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

// resize32 returns s with n zeroed entries, reusing capacity.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// next returns the color a node of color c moves to against the
// out-neighbor colors out: the first point x with the fewest colliding
// neighbors, and the node's polynomial value there. Two colors collide at
// x when their polynomials agree there, which t looks up. Equal colors
// share the whole polynomial; they carry defect from previous defective
// steps and do not influence the argmin.
func (t *rootTable) next(sc *reduceScratch, c int, out []int) int {
	q := t.sp.q
	sc.gf.init(t.sp)
	sc.gf.load(c)
	if cap(sc.nb) < t.sp.deg+1 {
		sc.nb = make([]uint64, t.sp.deg+1)
	}
	nb := sc.nb[:t.sp.deg+1]
	cnt := resize32(sc.cnt, q)
	sc.cnt = cnt
	for _, cu := range out {
		if cu == c {
			continue
		}
		sc.gf.split(cu, nb)
		t.collide(&sc.gf, sc.gf.digits, nb, cnt)
	}
	best, bestCnt := -1, int32(^uint32(0)>>1)
	for x := 0; x < q; x++ {
		if cnt[x] < bestCnt {
			best, bestCnt = x, cnt[x]
		}
	}
	return best*q + int(sc.gf.evalAt(uint64(best)))
}

func (a *reduceAlg) Inbox(v int, in []sim.Received) {
	sc := reduceScratchPool.Get().(*reduceScratch)
	// Collect out-neighbor colors (messages arrive from all neighbors). A
	// payload that is not a clean UintPayload — e.g. corrupted in transit —
	// is skipped: a missing opponent can only make the argmin pick a point
	// with an unnoticed collision, which the validation after the run
	// catches; it can never panic the reduction.
	sc.out = sc.out[:0]
	for _, msg := range in {
		if !a.o.HasArc(v, msg.From) {
			continue
		}
		if a.class != nil && a.class[msg.From] != a.class[v] {
			continue
		}
		if pay, ok := msg.Payload.(sim.UintPayload); ok {
			sc.out = append(sc.out, int(pay.Value))
		}
	}
	a.next[v] = a.table.next(sc, a.colors[v], sc.out)
	reduceScratchPool.Put(sc)
}

func (a *reduceAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	// Commit the step computed in the previous round, then build the next
	// step's table while no Inbox callback runs.
	copy(a.colors, a.next)
	sp := a.sched.Steps[a.step]
	a.m = sp.q * sp.q
	a.step++
	if a.step >= len(a.sched.Steps) {
		a.finished = true
		a.table = nil
	} else {
		a.table = newRootTable(a.sched.Steps[a.step])
	}
	return a.finished
}

// reduce checks a reduction's inputs, then runs sched from init on eng
// and returns the realized coloring, unvalidated; with no steps it
// returns a copy of init. class, when non-nil, restricts opponents to
// same-class neighbors.
func reduce(eng *sim.Engine, o *graph.Oriented, class, init []int, m int, sched Schedule) ([]int, sim.Stats, error) {
	n := o.N()
	if len(init) != n {
		return nil, sim.Stats{}, fmt.Errorf("linial: initial coloring has %d entries for %d nodes", len(init), n)
	}
	for v, c := range init {
		if c < 0 || c >= m {
			return nil, sim.Stats{}, fmt.Errorf("linial: node %d initial color %d outside [0,%d)", v, c, m)
		}
	}
	if len(sched.Steps) == 0 {
		return append([]int(nil), init...), sim.Stats{}, nil
	}
	for _, sp := range sched.Steps {
		if rootTableEntries(sp, maxRootTable) >= maxRootTable {
			return nil, sim.Stats{}, fmt.Errorf("linial: step (q=%d, D=%d) for %d colors needs a root table of over %d entries", sp.q, sp.deg, m, maxRootTable)
		}
	}
	alg := newReduceAlg(o, init, m, sched)
	alg.class = class
	stats, err := eng.Run(alg, sched.Rounds()+2)
	if err != nil {
		return nil, stats, err
	}
	return alg.colors, stats, nil
}

// Proper computes a proper coloring with at most (smallest prime > 2β)²
// colors, starting from the given proper m-coloring (e.g. unique ids), in
// Schedule.Rounds() = O(log* m) communication rounds. init must hold one
// color in [0, m) per node.
func Proper(eng *sim.Engine, o *graph.Oriented, init []int, m int) ([]int, int, sim.Stats, error) {
	sched := ProperSchedule(m, o.MaxOutDegree())
	colors, stats, err := reduce(eng, o, nil, init, m, sched)
	if err != nil {
		return nil, 0, stats, err
	}
	if len(sched.Steps) == 0 {
		return colors, m, stats, nil
	}
	// Every edge carries an arc, and the arc holder avoids its target's
	// color, so the output is proper on the whole graph.
	if err := coloring.CheckProper(o.Graph(), colors, sched.Final); err != nil {
		return nil, 0, stats, fmt.Errorf("linial: output invalid: %w", err)
	}
	return colors, sched.Final, stats, nil
}

// Defective computes a d-defective (w.r.t. out-neighbors) coloring with
// O((β·D/(d+1))²) colors in O(log* m) rounds [Kuh09]. init must hold one
// color in [0, m) per node.
func Defective(eng *sim.Engine, o *graph.Oriented, init []int, m, d int) ([]int, int, sim.Stats, error) {
	sched := DefectiveSchedule(m, o.MaxOutDegree(), d)
	colors, stats, err := reduce(eng, o, nil, init, m, sched)
	if err != nil {
		return nil, 0, stats, err
	}
	if len(sched.Steps) == 0 {
		return colors, m, stats, nil
	}
	if err := coloring.CheckOrientedDefective(o, colors, sched.Final, d); err != nil {
		return nil, 0, stats, fmt.Errorf("linial: defective output invalid: %w", err)
	}
	return colors, sched.Final, stats, nil
}

// ProperWithin computes a coloring that is proper within every class:
// adjacent nodes of equal class end up with different colors, while arcs
// crossing class boundaries are unconstrained. beta must bound the
// *same-class* out-degree of every node; the output uses at most (smallest
// prime > 2β)² colors after O(log* m) rounds. This is the restricted
// reduction Maus's coloring algorithm runs inside each defect class, where
// beta = d ≪ Δ keeps the intra-class palette small. class and init must
// hold one entry per node, the colors in [0, m).
func ProperWithin(eng *sim.Engine, o *graph.Oriented, class, init []int, m, beta int) ([]int, int, sim.Stats, error) {
	if len(class) != o.N() {
		return nil, 0, sim.Stats{}, fmt.Errorf("linial: class assignment has %d entries for %d nodes", len(class), o.N())
	}
	sched := ProperSchedule(m, beta)
	colors, stats, err := reduce(eng, o, class, init, m, sched)
	if err != nil {
		return nil, 0, stats, err
	}
	if len(sched.Steps) == 0 {
		return colors, m, stats, nil
	}
	for v := 0; v < o.N(); v++ {
		c := colors[v]
		if c < 0 || c >= sched.Final {
			return nil, 0, stats, fmt.Errorf("linial: node %d color %d outside [0,%d)", v, c, sched.Final)
		}
		for _, u := range o.Out(v) {
			if class[v] == class[u] && c == colors[u] {
				return nil, 0, stats, fmt.Errorf("linial: nodes %d and %d share class %d and color %d", v, u, class[v], c)
			}
		}
	}
	return colors, sched.Final, stats, nil
}

// IDs returns the identity initial coloring (unique ids as colors).
func IDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
