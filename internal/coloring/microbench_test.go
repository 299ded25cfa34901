package coloring

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkSquareSumOrientedRange builds the square-sum lists of the
// dense perfbench instance: RandomRegular(1024,128) oriented by id, 2^15
// colours, κ = 6, defects 1–3.
func BenchmarkSquareSumOrientedRange(b *testing.B) {
	o := graph.OrientByID(graph.RandomRegular(1024, 128, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquareSumOrientedRange(o, 1<<15, 6, 1, 3, int64(i))
	}
}
