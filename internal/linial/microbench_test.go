package linial

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func BenchmarkProperLinial(b *testing.B) {
	for _, n := range []int{2048, 65536} {
		g := graph.RandomRegular(n, 8, 1)
		o := graph.OrientSymmetric(g)
		ids := IDs(g.N())
		b.Run(fmt.Sprintf("n=%d/d=8", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Proper(sim.NewEngine(g), o, ids, g.N()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefectiveLinial is maus21's defect-class stage at k = 2 on the
// sparse-proper graph: Defective with d = 3.
func BenchmarkDefectiveLinial(b *testing.B) {
	g := graph.RandomRegular(65536, 8, 1)
	o := graph.OrientSymmetric(g)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Defective(sim.NewEngine(g), o, ids, g.N(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRootTable builds the root table of sparse-proper's first step
// and of the first step at m = 2^20, β = 8.
func BenchmarkRootTable(b *testing.B) {
	for _, sp := range []stepParams{{q: 29, deg: 3}, {q: 37, deg: 4}} {
		b.Run(fmt.Sprintf("q=%d/D=%d", sp.q, sp.deg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newRootTable(sp)
			}
		})
	}
}

func BenchmarkRowShiftReduce(b *testing.B) {
	g := graph.RandomRegular(512, 8, 2)
	o := graph.OrientSymmetric(g)
	ids := IDs(g.N())
	colors, m, _, err := Proper(sim.NewEngine(g), o, ids, g.N())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReduceToP(sim.NewEngine(g), g, colors, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaPlusOne(b *testing.B) {
	g := graph.RandomRegular(512, 8, 3)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DeltaPlusOne(sim.NewEngine(g), g, ids, g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArbdefectiveBootstrap(b *testing.B) {
	g := graph.RandomRegular(256, 16, 4)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Arbdefective(sim.NewEngine(g), g, ids, g.N(), 7); err != nil {
			b.Fatal(err)
		}
	}
}
