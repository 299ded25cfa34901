package graph

import "testing"

func BenchmarkRandomRegular(b *testing.B) {
	for _, c := range []struct {
		name string
		n, d int
	}{{"n=1024/d=8", 1024, 8}, {"n=1024/d=128", 1024, 128}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RandomRegular(c.n, c.d, int64(i))
			}
		})
	}
}

func BenchmarkGNP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GNP(512, 0.05, int64(i))
	}
}

func BenchmarkEulerOrientation(b *testing.B) {
	g := GNP(512, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EulerOrientation(g)
	}
}

func BenchmarkDegeneracyOrientation(b *testing.B) {
	g := PreferentialAttachment(2048, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrientDegeneracy(g)
	}
}

func BenchmarkLineGraph(b *testing.B) {
	g := RandomRegular(256, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LineGraph()
	}
}
