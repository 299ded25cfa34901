package graph

import "testing"

// edgeDigest is a 64-bit FNV-1a hash over n, m and then every edge (u, v)
// in ForEachEdge order, each integer as eight little-endian bytes. It is
// the edge-list digest perfbench prints, so a pinned value can be looked
// up in a benchmark log.
func edgeDigest(g *Graph) uint64 {
	h := uint64(14695981039346656037)
	add := func(xs ...int) {
		for _, x := range xs {
			u := uint64(x)
			for i := 0; i < 8; i++ {
				h ^= uint64(byte(u))
				h *= 1099511628211
				u >>= 8
			}
		}
	}
	add(g.N(), g.M())
	g.ForEachEdge(func(u, v int) { add(u, v) })
	return h
}

// regularPins holds the edge-list digest of every RandomRegular input the
// repository's programs use. Every golden colouring, Stats and trace
// downstream depends on these graphs.
var regularPins = []struct {
	n, d   int
	seed   int64
	digest uint64
}{
	// internal/bench harnesses: recovery, serve, WAL, alg, sim, chaos, matrix.
	{256, 8, 1, 0xdaf4acb31b9797de},
	{512, 64, 1, 0x0cc55ec53c3a04d3},
	{512, 8, 1, 0x5dca2012b175a0b7},
	{256, 64, 1, 0xd565835d1e6cf4ca},
	{2048, 8, 1, 0x023ce8a83b34d941},
	{1024, 64, 1, 0xf17cc28d1bbae655},
	{1024, 128, 1, 0xd8953848b6c8be3c},
	{4096, 8, 1, 0x81424d1db5911e7d},
	{2048, 64, 1, 0x6bb8b9ae922b0a14},
	{2048, 128, 1, 0x55cc654a69a4c5c7},
	{128, 8, 1, 0xb6c09b0f8b3bc6af},
	{128, 16, 1, 0x32b56b74cc188739},
	{96, 32, 1, 0xefcb6123cf038103},
	{512, 128, 1, 0xfdeeff9597f5a8d3},
	// internal/bench experiments; the E1 rows also cover examples/congestcmp.
	{64, 4, 52, 0x59149b98b6c1dc65},
	{96, 6, 78, 0x8ca403b095fe1b2a},
	{128, 8, 104, 0x50a5f28e19c556af},
	{128, 16, 51, 0x7523dd78b75ea259},
	{192, 24, 51, 0xd89933fbd5a99912},
	{320, 40, 51, 0xc72be77529f9b1a9},
	{48, 6, 42, 0x2195aac24ee76685},
	{96, 12, 84, 0x8f07f53b765c6c4f},
	{160, 20, 140, 0x50154f92d87a9c43},
	{256, 32, 224, 0x64fde9042287b13a},
	{384, 48, 336, 0xa2b4dffa947153ee},
	{64, 6, 64, 0x642ab8abf4b9af85},
	{512, 6, 512, 0x6244c748fdc13c05},
	{4096, 6, 4096, 0x18254a1a20b82845},
	{32768, 6, 32768, 0xa7645181c65df304},
	{64, 8, 64, 0xf012b85b577d5cea},
	{256, 8, 256, 0x7034617f3d8f6a9e},
	{1024, 8, 1024, 0xbffa0c54701e82d9},
	{4096, 8, 4096, 0xc66848edf7d8c7ad},
	{1024, 12, 2, 0x8d118915c0a29ab5},
	{96, 12, 47, 0x1d4ad9582bc53e0f},
	{32, 4, 4, 0x7be7312c25138505},
	{32, 4, 104, 0xb70c1fb9b5e459e5},
	{64, 8, 8, 0x99952a4a8a14526a},
	{64, 8, 108, 0x7704187becf2344a},
	{128, 16, 16, 0xf5ad8b8b26740839},
	{128, 16, 116, 0xba8bdd1f376b16d9},
	{256, 32, 32, 0x0e62ccd0bcaae83a},
	{256, 32, 132, 0x34c0c4c09c82b3da},
	{512, 64, 64, 0xb46b700b052d4457},
	{512, 64, 164, 0x6335d78430c3ac27},
	{64, 8, 777, 0x443ed6110e7cdaaa},
	{64, 8, 31, 0x085d1b168531324a},
	{64, 8, 41, 0x67e3d90631556eca},
	{64, 8, 1234, 0x3e17afdd2b3d754a},
	{48, 6, 4242, 0xbdc1d510db931005},
	{128, 16, 37, 0x439703f2ca27a479},
	// ldc-run and ldc-serve defaults (ldc-serve's equals the WAL case), examples.
	{64, 6, 1, 0x05b9ad139e1f8b05},
	{32, 5, 123, 0x4fe0d4db8ac6a215},
	{64, 8, 1, 0xf8afbea2725b3c4a},
	// perfbench: dense-oldc and serve-churn on seeds 1–2 (dense seed 1 is the
	// alg case above), sparse-proper on seed 1.
	{1024, 128, 2, 0xfe7706740ef29524},
	{65536, 8, 1, 0x6a82f2d05542a048},
	{16384, 8, 1, 0x4cdcd8430c615ffc},
	{16384, 8, 2, 0x3abb78fd94ddf798},
}

func TestRandomRegularDigests(t *testing.T) {
	for _, p := range regularPins {
		if got := edgeDigest(RandomRegular(p.n, p.d, p.seed)); got != p.digest {
			t.Errorf("RandomRegular(%d,%d,%d): digest %#016x, pinned %#016x", p.n, p.d, p.seed, got, p.digest)
		}
	}
}
