package graph

import (
	"math"
	"math/rand"
)

// EdgeStream is a deterministic, restartable edge producer: every call to
// ForEachEdge yields the edges of one fixed graph exactly once each, in an
// order fully determined by the stream's parameters (seed included).
// Streams let huge graphs be consumed — ingested into a simulator
// engine's CSR (sim.Ingest), written to disk, or materialized — without the
// global edge list, sort, and adjacency maps a Builder requires.
//
// Restartability is part of the contract: consumers may traverse a stream
// several times (e.g. once to ingest and once to emit a self-contained
// verification document) and must see the identical edge sequence.
type EdgeStream interface {
	// N returns the number of vertices; emitted endpoints are in [0, N).
	N() int
	// ForEachEdge streams every edge {u, v} exactly once (direction of the
	// pair is not significant). A non-nil error from emit aborts the
	// traversal and is returned; generator streams themselves never fail,
	// file-backed streams surface I/O and parse errors.
	ForEachEdge(emit func(u, v int) error) error
}

// Topology is the read-only neighborhood view distributed algorithms need
// at run time. *Graph implements it, and so does sim.Engine, whose
// streamed ingest keeps its own CSR, so algorithms run unchanged on graphs
// that were never materialized as a single *Graph.
type Topology interface {
	// N returns the number of vertices.
	N() int
	// MaxDegree returns Δ.
	MaxDegree() int
	// Neighbors returns v's sorted neighbor list; callers must not modify
	// it.
	Neighbors(v int) []int32
}

// Materialize builds a *Graph from a stream via the standard Builder
// (dedup + sorted adjacency). It is the bridge from the streaming world
// back to the materialized one; the non-streaming generators are defined
// as Materialize of their stream, which is what makes "streamed edges ==
// materialized graph" hold by construction.
func Materialize(es EdgeStream) (*Graph, error) {
	b := NewBuilder(es.N())
	if err := es.ForEachEdge(func(u, v int) error {
		b.AddEdge(u, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Stream adapts a materialized graph to the EdgeStream interface (edges in
// ForEachEdge order, i.e. sorted by (u, v) with u < v).
func Stream(g *Graph) EdgeStream { return graphStream{g} }

type graphStream struct{ g *Graph }

func (s graphStream) N() int { return s.g.N() }

func (s graphStream) ForEachEdge(emit func(u, v int) error) error {
	var err error
	s.g.ForEachEdge(func(u, v int) {
		if err == nil {
			err = emit(u, v)
		}
	})
	return err
}

// StreamGNP returns the G(n, p) Erdős–Rényi sample as a stream, using
// geometric skip sampling: instead of flipping a coin per vertex pair, the
// stream jumps directly to the next present edge, so a sparse sample costs
// O(m) work and O(1) memory rather than O(n²). The edge order is
// lexicographic over pairs (i, j), i < j, and is fixed by the seed.
func StreamGNP(n int, p float64, seed int64) EdgeStream {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return gnpStream{n: n, p: p, seed: seed}
}

type gnpStream struct {
	n    int
	p    float64
	seed int64
}

func (s gnpStream) N() int { return s.n }

func (s gnpStream) ForEachEdge(emit func(u, v int) error) error {
	if s.n < 2 || s.p <= 0 {
		return nil
	}
	if s.p >= 1 {
		for i := 0; i < s.n; i++ {
			for j := i + 1; j < s.n; j++ {
				if err := emit(i, j); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(s.seed))
	logq := math.Log1p(-s.p) // log(1-p) < 0
	total := int64(s.n) * int64(s.n-1) / 2
	// k is the linear index of the current pair in lexicographic order;
	// row i covers indices [rowStart, rowStart + n-1-i).
	k := int64(-1)
	i, rowStart := 0, int64(0)
	for {
		// Geometric gap ≥ 1: trials until the next present pair.
		u := rng.Float64()
		k += int64(math.Log(1-u)/logq) + 1
		if k >= total || k < 0 { // k < 0 guards float overflow on tiny p
			return nil
		}
		for k >= rowStart+int64(s.n-1-i) {
			rowStart += int64(s.n - 1 - i)
			i++
		}
		if err := emit(i, i+1+int(k-rowStart)); err != nil {
			return err
		}
	}
}

// StreamPreferentialAttachment returns the Barabási–Albert style power-law
// sample as a stream: vertices k+1..n-1 each attach to k distinct earlier
// vertices chosen proportionally to degree (repeated-endpoint sampling).
// Only the 2m-entry endpoint list is held in memory — no adjacency sets,
// Builder edge list, or sort. Edges are emitted in attachment order
// (initial (k+1)-clique first, then each vertex's picks in pick order),
// fixed by the seed.
//
// The pick order is also what makes the sample reproducible: the
// pre-streaming implementation appended endpoints in Go map iteration
// order, so the same seed could yield different graphs between runs.
func StreamPreferentialAttachment(n, k int, seed int64) EdgeStream {
	if n < k+1 {
		panic("graph: PreferentialAttachment needs n > k")
	}
	if k < 1 {
		panic("graph: PreferentialAttachment needs k >= 1")
	}
	return paStream{n: n, k: k, seed: seed}
}

type paStream struct {
	n, k int
	seed int64
}

func (s paStream) N() int { return s.n }

func (s paStream) ForEachEdge(emit func(u, v int) error) error {
	rng := rand.New(rand.NewSource(s.seed))
	m := s.k*(s.k+1)/2 + s.k*(s.n-s.k-1)
	endpoints := make([]int32, 0, 2*m)
	for i := 0; i < s.k+1; i++ {
		for j := i + 1; j < s.k+1; j++ {
			if err := emit(i, j); err != nil {
				return err
			}
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, s.k)
	for v := s.k + 1; v < s.n; v++ {
		chosen = chosen[:0]
		for len(chosen) < s.k {
			c := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, x := range chosen {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, c)
			}
		}
		for _, u := range chosen {
			if err := emit(v, int(u)); err != nil {
				return err
			}
			endpoints = append(endpoints, int32(v), u)
		}
	}
	return nil
}
