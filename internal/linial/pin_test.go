package linial

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/sim"
)

// colorDigest is a 64-bit FNV-1a hash over every node's colour, each as
// eight little-endian bytes. It is the colouring digest perfbench prints,
// so a pinned value can be looked up in a benchmark log.
func colorDigest(colors []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range colors {
		u := uint64(c)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(u))
			h *= 1099511628211
			u >>= 8
		}
	}
	return h
}

// reductionPin is the pinned outcome of one reduction run: the colouring
// digest, the palette bound and the run's rounds, total bits and dropped
// wires.
type reductionPin struct {
	digest  uint64
	colors  int
	rounds  int
	bits    int64
	dropped int64
}

func checkReductionPin(t *testing.T, name string, colors []int, m int, st sim.Stats, err error, want reductionPin) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := reductionPin{colorDigest(colors), m, st.Rounds, st.TotalBits, st.TotalFaults().Dropped}
	if got != want {
		t.Errorf("%s: got {%#016x, %d, %d, %d, %d}, pinned {%#016x, %d, %d, %d, %d}", name,
			got.digest, got.colors, got.rounds, got.bits, got.dropped,
			want.digest, want.colors, want.rounds, want.bits, want.dropped)
	}
}

// TestProperPins pins linial.Proper from unique ids on the perfbench
// sparse-proper and serve-churn graphs. The sharded row runs the Inbox
// callbacks concurrently against the shared per-step state.
func TestProperPins(t *testing.T) {
	for _, p := range []struct {
		n, shards int
		pin       reductionPin
	}{
		{65536, 1, reductionPin{0xee0dfc51fd5f473d, 289, 2, 13631488, 0}},
		{16384, 1, reductionPin{0xf0d23616481c761f, 289, 2, 3145728, 0}},
		{16384, 4, reductionPin{0xf0d23616481c761f, 289, 2, 3145728, 0}},
	} {
		g := graph.RandomRegular(p.n, 8, 1)
		eng := sim.NewEngineWith(g, sim.Options{Shards: p.shards})
		colors, m, st, err := Proper(eng, graph.OrientSymmetric(g), IDs(p.n), p.n)
		checkReductionPin(t, fmt.Sprintf("Proper/n=%d/shards=%d", p.n, p.shards), colors, m, st, err, p.pin)
	}
}

// TestMausShapePins pins the two Linial stages of maus21 at k = 2 on the
// sparse-proper graph: Defective with d = 3, then ProperWithin the
// resulting classes with β = 3.
func TestMausShapePins(t *testing.T) {
	const n = 65536
	g := graph.RandomRegular(n, 8, 1)
	o := graph.OrientSymmetric(g)
	class, q1, st, err := Defective(sim.NewEngine(g), o, IDs(n), n, 3)
	checkReductionPin(t, "Defective", class, q1, st, err, reductionPin{0x75a037a4726febd0, 49, 3, 18350080, 0})
	intra, q2, st, err := ProperWithin(sim.NewEngine(g), o, class, IDs(n), n, 3)
	checkReductionPin(t, "ProperWithin", intra, q2, st, err, reductionPin{0x271b3f32e7157ea1, 49, 2, 12582912, 0})
}

// TestProperDropPin pins the reduction under i.i.d. message loss: a
// dropped neighbour colour is a missing opponent in the collision count,
// so the realized colouring pins how the kernel treats an incomplete
// inbox, and Proper's validation must reject it at the same edge.
func TestProperDropPin(t *testing.T) {
	g := graph.RandomRegular(16384, 8, 1)
	o := graph.OrientSymmetric(g)
	faults := chaos.Drop(7, 0.05)
	sched := ProperSchedule(g.N(), o.MaxOutDegree())
	alg := newReduceAlg(o, IDs(g.N()), g.N(), sched)
	st, err := sim.NewEngineWith(g, sim.Options{Faults: faults}).Run(alg, sched.Rounds()+2)
	checkReductionPin(t, "reduce/drop", alg.colors, sched.Final, st, err, reductionPin{0x788e9d5168f1e086, 289, 2, 2987244, 13222})

	_, _, _, err = Proper(sim.NewEngineWith(g, sim.Options{Faults: faults}), o, IDs(g.N()), g.N())
	const want = "linial: output invalid: coloring: monochromatic edge {681,1528} with color 3"
	if err == nil || err.Error() != want {
		t.Errorf("Proper under drops: error %v, pinned %q", err, want)
	}
}
