package coloring

import (
	"testing"

	"repro/internal/graph"
)

// listDigest is a 64-bit FNV-1a hash over every node's list length,
// colours and defects, each integer as eight little-endian bytes. It is
// the list digest perfbench prints, so a pinned value can be looked up in
// a benchmark log.
func listDigest(lists []NodeList) uint64 {
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
	for _, l := range lists {
		add(len(l.Colors))
		add(l.Colors...)
		add(l.Defect...)
	}
	return h
}

// squareSumPins holds the list digests of SquareSumOrientedRange on the
// perfbench workloads' instances and on ldc-run's default instance: the
// lists of RandomRegular(n, d, seed) oriented by id. serve.New builds its
// lists with the same call.
var squareSumPins = []struct {
	n, d              int
	seed              int64
	space             int
	kappa             float64
	minDefect, maxDef int
	digest            uint64
}{
	{1024, 128, 1, 32768, 6, 1, 3, 0xe7cd2bfa688d5aca}, // perfbench dense-oldc
	{65536, 8, 1, 4096, 5, 1, 2, 0x93b45e24d1b0ace6},   // perfbench sparse-proper
	{16384, 8, 1, 4096, 5, 1, 2, 0xd67577ee20446a21},   // perfbench serve-churn
	{64, 6, 1, 4096, 5, 1, 3, 0x17f5fb018140a8ff},      // ldc-run -algo oldc|fk24 defaults
}

func TestSquareSumDigests(t *testing.T) {
	for _, p := range squareSumPins {
		o := graph.OrientByID(graph.RandomRegular(p.n, p.d, p.seed))
		got := listDigest(SquareSumOrientedRange(o, p.space, p.kappa, p.minDefect, p.maxDef, p.seed).Lists)
		if got != p.digest {
			t.Errorf("SquareSumOrientedRange on RandomRegular(%d,%d,%d): digest %#016x, pinned %#016x", p.n, p.d, p.seed, got, p.digest)
		}
	}
}
