package linial

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// sweepNext is the reference collision kernel: the per-point Barrett
// sweep the reduction ran before the root table. It evaluates the node's
// own polynomial at every point, then sweeps each neighbor polynomial
// across all points against it, and returns the first point with the
// fewest collisions together with the node's value there.
func sweepNext(sp stepParams, c int, out []int) int {
	q := sp.q
	var gf gfStep
	gf.init(sp)
	fv := make([]int32, q)
	cnt := make([]int32, q)
	gf.load(c)
	for x := 0; x < q; x++ {
		fv[x] = int32(gf.evalAt(uint64(x)))
	}
	for _, cu := range out {
		if cu == c {
			continue
		}
		gf.load(cu)
		for x := 0; x < q; x++ {
			if int32(gf.evalAt(uint64(x))) == fv[x] {
				cnt[x]++
			}
		}
	}
	best, bestCnt := -1, int32(^uint32(0)>>1)
	for x := 0; x < q; x++ {
		if cnt[x] < bestCnt {
			best, bestCnt = x, cnt[x]
		}
	}
	return best*q + int(fv[best])
}

// degreeRangeEnds returns both ends, clipped to [2, maxM], of every range
// of m over which chooseStep(m, qFloor) picks the same degree.
func degreeRangeEnds(maxM int, qFloor func(deg int) int) []int {
	var ends []int
	prev := 1 // the largest m an earlier degree covers
	for deg := 1; prev < maxM; deg++ {
		q := SmallestPrimeAtLeast(qFloor(deg) + 1)
		reach := maxM
		if !powAtLeast(q, deg+1, maxM) {
			reach = 1
			for i := 0; i <= deg; i++ {
				reach *= q
			}
		}
		if reach > prev {
			ends = append(ends, max(prev+1, 2), reach)
			prev = reach
		}
	}
	return ends
}

// scheduleShapes returns every distinct step (q, D) that ProperSchedule
// and DefectiveSchedule plan for m ≤ maxM, β ≤ maxBeta and d ≤ maxD,
// plus small q = 2 and q = 3 steps. A schedule depends on m only through
// the degree its first chooseStep picks and two comparisons monotone in
// m (m above the proper target, the defective q² below it), so planning
// from both ends of every degree range of m covers every m.
func scheduleShapes(maxM, maxBeta, maxD int) []stepParams {
	seen := map[stepParams]bool{
		{q: 2, deg: 1}: true, {q: 2, deg: 2}: true, {q: 2, deg: 5}: true,
		{q: 3, deg: 1}: true, {q: 3, deg: 2}: true, {q: 3, deg: 4}: true,
	}
	for beta := 0; beta <= maxBeta; beta++ {
		ms := degreeRangeEnds(maxM, func(deg int) int { return beta * deg })
		for d := 0; d <= maxD; d++ {
			ms = append(ms, degreeRangeEnds(maxM, func(deg int) int { return beta * deg / (d + 1) })...)
		}
		for _, m := range ms {
			for d := 0; d <= maxD; d++ {
				for _, sp := range DefectiveSchedule(m, beta, d).Steps {
					seen[sp] = true
				}
			}
		}
	}
	shapes := make([]stepParams, 0, len(seen))
	for sp := range seen {
		shapes = append(shapes, sp)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].q != shapes[j].q {
			return shapes[i].q < shapes[j].q
		}
		return shapes[i].deg < shapes[j].deg
	})
	return shapes
}

// kernelShapes is every step the schedules plan for m ≤ 2^20, β ≤ 64 and
// d ≤ 8.
var kernelShapes = sync.OnceValue(func() []stepParams { return scheduleShapes(1<<20, 64, 8) })

// colorSpace returns q^(D+1), the number of colors step sp accepts.
func colorSpace(sp stepParams) int {
	m := 1
	for i := 0; i <= sp.deg; i++ {
		m *= sp.q
	}
	return m
}

// neighborColors draws up to 12 out-neighbor colors for a node of color c
// in a color space of size m: fresh colors, copies of c, repeats of an
// earlier neighbor, and colors that differ from c in one base-q digit.
func neighborColors(rng *rand.Rand, sp stepParams, c, m int) []int {
	out := make([]int, rng.Intn(13))
	for i := range out {
		switch r := rng.Intn(6); {
		case r == 0:
			out[i] = c
		case r == 1 && i > 0:
			out[i] = out[rng.Intn(i)]
		case r == 2:
			pos := 1
			for j := rng.Intn(sp.deg + 1); j > 0; j-- {
				pos *= sp.q
			}
			digit := c / pos % sp.q
			out[i] = c + ((digit+1+rng.Intn(sp.q-1))%sp.q-digit)*pos
		default:
			out[i] = rng.Intn(m)
		}
	}
	return out
}

func TestScheduleShapesCoverSmallFields(t *testing.T) {
	shapes := kernelShapes()
	var q2, q3 bool
	for _, sp := range shapes {
		q2 = q2 || sp.q == 2
		q3 = q3 || sp.q == 3
	}
	if !q2 || !q3 || len(shapes) < 50 {
		t.Fatalf("%d shapes, q=2 present %v, q=3 present %v", len(shapes), q2, q3)
	}
	// Spot-check against direct planning on a grid of m.
	for _, m := range []int{2, 3, 100, 289, 841, 4096, 65536, 1 << 20} {
		for _, beta := range []int{0, 1, 8, 64} {
			for _, sp := range DefectiveSchedule(m, beta, 3).Steps {
				i := sort.Search(len(shapes), func(i int) bool {
					return shapes[i].q > sp.q || shapes[i].q == sp.q && shapes[i].deg >= sp.deg
				})
				if i == len(shapes) || shapes[i] != sp {
					t.Fatalf("m=%d β=%d: step %+v missing from the shape list", m, beta, sp)
				}
			}
		}
	}
}

// TestRootTableListsRoots checks small tables entry by entry against
// polyEval: every monic polynomial's listed roots are exactly its zeros.
func TestRootTableListsRoots(t *testing.T) {
	for _, sp := range []stepParams{{q: 2, deg: 3}, {q: 3, deg: 3}, {q: 5, deg: 2}, {q: 7, deg: 3}, {q: 11, deg: 2}} {
		tb := newRootTable(sp)
		for k := 1; k <= sp.deg; k++ {
			pow := 1
			for i := 0; i < k; i++ {
				pow *= sp.q
			}
			for low := 0; low < pow; low++ {
				idx := tb.first[k] + low
				var want []int32
				for x := 0; x < sp.q; x++ {
					// low + q^k is the monic polynomial's digit string.
					if polyEval(low+pow, x, sp.q, k) == 0 {
						want = append(want, int32(x))
					}
				}
				got := tb.roots[tb.off[idx]:tb.off[idx+1]]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("q=%d k=%d low=%d: roots %v, want %v", sp.q, k, low, got, want)
				}
			}
		}
	}
}

// TestCollisionKernelMatchesSweep compares the root-table kernel with the
// per-point sweep on random nodes of every planned step.
func TestCollisionKernelMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := new(reduceScratch)
	for _, sp := range kernelShapes() {
		tb := newRootTable(sp)
		m := colorSpace(sp)
		for trial := 0; trial < 200; trial++ {
			c := rng.Intn(m)
			out := neighborColors(rng, sp, c, m)
			if got, want := tb.next(sc, c, out), sweepNext(sp, c, out); got != want {
				t.Fatalf("q=%d D=%d c=%d out=%v: kernel %d, sweep %d", sp.q, sp.deg, c, out, got, want)
			}
		}
	}
}

// fuzzTables caches the tables of the fuzz target's small steps; larger
// ones are rebuilt per input so a fuzz worker's memory stays bounded.
var fuzzTables sync.Map

func FuzzCollisionKernel(f *testing.F) {
	f.Add(uint16(0), uint64(0), []byte{})
	f.Add(uint16(7), uint64(12345), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(40), ^uint64(0), []byte{0xff, 0, 0xff, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, pick uint16, rawC uint64, rawOut []byte) {
		shapes := kernelShapes()
		sp := shapes[int(pick)%len(shapes)]
		m := colorSpace(sp)
		c := int(rawC % uint64(m))
		// Every four bytes make one neighbor: a zero first byte copies c,
		// a first byte of 1 repeats the previous neighbor, anything else
		// reads the four bytes as a color.
		var out []int
		for ; len(rawOut) >= 4; rawOut = rawOut[4:] {
			switch {
			case rawOut[0] == 0:
				out = append(out, c)
			case rawOut[0] == 1 && len(out) > 0:
				out = append(out, out[len(out)-1])
			default:
				out = append(out, (int(rawOut[1])|int(rawOut[2])<<8|int(rawOut[3])<<16|int(rawOut[0])<<24)%m)
			}
		}
		var tb *rootTable
		if v, ok := fuzzTables.Load(sp); ok {
			tb = v.(*rootTable)
		} else {
			tb = newRootTable(sp)
			if len(tb.roots) <= 1<<20 {
				fuzzTables.Store(sp, tb)
			}
		}
		if got, want := tb.next(new(reduceScratch), c, out), sweepNext(sp, c, out); got != want {
			t.Fatalf("q=%d D=%d c=%d out=%v: kernel %d, sweep %d", sp.q, sp.deg, c, out, got, want)
		}
	})
}

// TestReduceKernelAllocs holds the kernel's allocation budget: a node's
// next color allocates nothing once its pooled scratch is warm, and a
// step's table build makes a constant number of allocations, however
// many entries the table holds.
func TestReduceKernelAllocs(t *testing.T) {
	sp := stepParams{q: 29, deg: 3}
	tb := newRootTable(sp)
	sc := new(reduceScratch)
	out := []int{1, 900, 24388, 5, 5, 707280, 31, 12345}
	tb.next(sc, 4242, out)
	if allocs := testing.AllocsPerRun(100, func() { tb.next(sc, 4242, out) }); allocs != 0 {
		t.Fatalf("per-node kernel allocated %.1f times", allocs)
	}
	for _, sp := range []stepParams{{q: 29, deg: 3}, {q: 13, deg: 4}, {q: 2, deg: 10}} {
		if allocs := testing.AllocsPerRun(3, func() { newRootTable(sp) }); allocs > 6 {
			t.Fatalf("q=%d D=%d: table build allocated %.0f times, want at most 6", sp.q, sp.deg, allocs)
		}
	}
}

// TestRejectsBadInitialColoring checks that the reductions return an
// error, rather than panic inside the engine, for an initial coloring of
// the wrong length or with a color outside [0, m).
func TestRejectsBadInitialColoring(t *testing.T) {
	g := graph.RandomRegular(4096, 8, 1)
	o := graph.OrientSymmetric(g)
	n := g.N()
	big := IDs(n)
	big[17] = 1 << 40
	neg := IDs(n)
	neg[3] = -1
	for name, init := range map[string][]int{
		"huge": big, "negative": neg, "short": IDs(n - 1), "long": IDs(n + 1),
	} {
		if _, _, _, err := Proper(sim.NewEngine(g), o, init, n); err == nil {
			t.Errorf("Proper/%s: no error", name)
		}
		if _, _, _, err := Defective(sim.NewEngine(g), o, init, n, 3); err == nil {
			t.Errorf("Defective/%s: no error", name)
		}
		if _, _, _, err := ProperWithin(sim.NewEngine(g), o, make([]int, n), init, n, 3); err == nil {
			t.Errorf("ProperWithin/%s: no error", name)
		}
	}
	if _, _, _, err := ProperWithin(sim.NewEngine(g), o, make([]int, n-1), IDs(n), n, 3); err == nil {
		t.Error("ProperWithin with a short class assignment: no error")
	}
}

// TestRejectsOversizedColorSpace checks that a color space whose first
// step would need a root table beyond int32 offsets is an error, not a
// failed allocation: a ring from 40-bit colors plans a (19, 9) step.
func TestRejectsOversizedColorSpace(t *testing.T) {
	g := graph.Ring(16)
	_, _, _, err := Proper(sim.NewEngine(g), graph.OrientSymmetric(g), IDs(g.N()), 1<<40)
	if err == nil || !strings.Contains(err.Error(), "root table") {
		t.Fatalf("got %v, want a root-table size error", err)
	}
}
