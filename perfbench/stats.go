package main

import (
	"fmt"
	"sort"

	"repro/internal/coloring"
	"repro/internal/graph"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// digest is a 64-bit FNV-1a hash over a stream of integers, printed as
// hex. Digests make repeated outputs comparable without storing them.
type digest uint64

func newDigest() *digest {
	d := digest(14695981039346656037) // FNV-1a offset basis
	return &d
}

func (d *digest) add(xs ...int) {
	for _, x := range xs {
		u := uint64(x)
		for i := 0; i < 8; i++ {
			*d ^= digest(byte(u))
			*d *= 1099511628211 // FNV-1a prime
			u >>= 8
		}
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", uint64(*d)) }

func edgeDigest(g *graph.Graph) string {
	d := newDigest()
	d.add(g.N(), g.M())
	g.ForEachEdge(func(u, v int) { d.add(u, v) })
	return d.String()
}

func listDigest(lists []coloring.NodeList) string {
	d := newDigest()
	for _, l := range lists {
		d.add(len(l.Colors))
		d.add(l.Colors...)
		d.add(l.Defect...)
	}
	return d.String()
}

func colorDigest(phi coloring.Assignment) string {
	d := newDigest()
	d.add(phi...)
	return d.String()
}
