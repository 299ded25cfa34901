package oldc

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// End-to-end Solve benchmarks on regular graphs across the degree range
// the family cache and bitset kernels target. Each iteration is one full
// run (γ-class selection, Phase I, Phase II) on a fresh engine; the
// instance is built once. perfbench's dense-oldc workload measures the
// Δ=128 instance end to end.
func benchmarkSolve(b *testing.B, n, delta, space int, kappa float64, noCache bool) {
	g := graph.RandomRegular(n, delta, 1)
	o := graph.OrientByID(g)
	init := make([]int, n)
	for i := range init {
		init[i] = i
	}
	inst := coloring.SquareSumOriented(o, space, kappa, 3, 7)
	in := Input{O: o, SpaceSize: space, Lists: inst.Lists, InitColors: init, M: n}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(g)
		if _, _, err := Solve(eng, in, Options{NoFamilyCache: noCache}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDelta8(b *testing.B)   { benchmarkSolve(b, 256, 8, 1<<12, 5.0, false) }
func BenchmarkSolveDelta64(b *testing.B)  { benchmarkSolve(b, 256, 64, 1<<14, 6.0, false) }
func BenchmarkSolveDelta128(b *testing.B) { benchmarkSolve(b, 256, 128, 1<<15, 6.0, false) }

// The NoCache variants quantify what the type-keyed family cache buys on
// its own (the bitset kernels are active in both).
func BenchmarkSolveDelta64NoCache(b *testing.B) { benchmarkSolve(b, 256, 64, 1<<14, 6.0, true) }
