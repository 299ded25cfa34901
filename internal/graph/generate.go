package graph

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// The generators below are all deterministic given their seed, so tests and
// experiments are reproducible.

// Ring returns the cycle C_n (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Path returns the path P_n.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Clique returns the complete graph K_n.
func Clique(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdge(i, a+j)
		}
	}
	return bl.Build()
}

// Grid returns the r x c grid graph.
func Grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return b.Build()
}

// Torus returns the r x c torus (wraparound grid); r, c >= 3.
func Torus(r, c int) *Graph {
	if r < 3 || c < 3 {
		panic("graph: torus needs r,c >= 3")
	}
	b := NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			b.AddEdge(id(i, j), id((i+1)%r, j))
			b.AddEdge(id(i, j), id(i, (j+1)%c))
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			w := v ^ (1 << k)
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// CompleteKary returns the complete k-ary tree with the given number of
// levels (levels >= 1; levels == 1 is a single vertex).
func CompleteKary(k, levels int) *Graph {
	n := 1
	width := 1
	for l := 1; l < levels; l++ {
		width *= k
		n += width
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/k)
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi G(n, p) sample. It is defined as the
// materialization of StreamGNP, so the streamed and materialized variants
// produce the identical graph for the same parameters (pinned by
// TestStreamMaterializedEquivalence).
func GNP(n int, p float64, seed int64) *Graph {
	g, err := Materialize(StreamGNP(n, p, seed))
	if err != nil {
		panic(err) // generator streams never fail
	}
	return g
}

// RandomRegular returns a d-regular graph on n vertices sampled via the
// configuration model followed by edge-swap repair of loops and duplicate
// edges. n*d must be even and d < n.
//
// Each repair attempt takes the first bad pair (a loop or a duplicate
// edge) and tries to swap it with a uniformly random pair. A min-heap of
// the positions that may be bad finds that pair in O(log m), so the
// repair costs O((m + attempts)·log m) instead of a rescan of all m pairs
// per attempt, and draws from the RNG in the rescan's order: a seed gives
// the same graph as ever. For d = n-1 it returns Clique(n), the only
// (n-1)-regular graph, which the repair reaches on some seeds only. An
// input the repair cannot finish in a million attempts panics.
func RandomRegular(n, d int, seed int64) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n*d even")
	}
	if d >= n {
		panic("graph: RandomRegular needs d < n")
	}
	if d == n-1 {
		return Clique(n)
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]int, n*d)
	for i := range stubs {
		stubs[i] = i / d
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	type edge = [2]int
	pairs := make([]edge, 0, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		pairs = append(pairs, edge{stubs[i], stubs[i+1]})
	}
	key := func(u, v int) [2]int32 {
		if u > v {
			u, v = v, u
		}
		return [2]int32{int32(u), int32(v)}
	}
	count := make(map[[2]int32]int, len(pairs))
	bad := func(e edge) bool { return e[0] == e[1] || count[key(e[0], e[1])] > 1 }
	for _, e := range pairs {
		if e[0] != e[1] {
			count[key(e[0], e[1])]++
		}
	}
	// cand holds every bad position, and stale ones that are dropped when
	// they reach the top. Ascending order is already a min-heap.
	var cand intHeap
	for i, e := range pairs {
		if bad(e) {
			cand = append(cand, i)
		}
	}
	// Repair by double edge swaps: replace a bad pair {u,v} and a random
	// pair {x,y} with {u,x} and {v,y} when that strictly helps.
	for attempt := 0; ; attempt++ {
		if attempt > 1000000 {
			panic(fmt.Sprintf("graph: RandomRegular(%d,%d) failed to converge", n, d))
		}
		for len(cand) > 0 && !bad(pairs[cand[0]]) {
			heap.Pop(&cand)
		}
		if len(cand) == 0 {
			break
		}
		badIdx := cand[0]
		j := rng.Intn(len(pairs))
		if j == badIdx {
			continue
		}
		u, v := pairs[badIdx][0], pairs[badIdx][1]
		x, y := pairs[j][0], pairs[j][1]
		if u == x || v == y {
			continue
		}
		if count[key(u, x)] > 0 || count[key(v, y)] > 0 {
			continue
		}
		// Remove old edges from the multiset, insert the rewired pair.
		if u != v {
			count[key(u, v)]--
		}
		if x != y {
			count[key(x, y)]--
		}
		count[key(u, x)]++
		count[key(v, y)]++
		pairs[badIdx] = edge{u, x}
		pairs[j] = edge{v, y}
		// The new edges are no loops and were absent, so the only pair a
		// swap can make bad is the double-loop one, {u,u},{x,x} → {u,x}
		// twice: position j. badIdx is still in cand.
		if bad(pairs[j]) {
			heap.Push(&cand, j)
		}
	}
	b := NewBuilder(n)
	for _, e := range pairs {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// intHeap is a min-heap of ints for container/heap.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// PreferentialAttachment returns a Barabási–Albert style power-law graph:
// each new vertex attaches to k distinct earlier vertices chosen with
// probability proportional to their degree. It is defined as the
// materialization of StreamPreferentialAttachment, which also fixed a
// long-standing reproducibility bug: the previous implementation appended
// sampling endpoints in Go map iteration order, so the same seed could
// yield different graphs between runs.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	g, err := Materialize(StreamPreferentialAttachment(n, k, seed))
	if err != nil {
		panic(err) // generator streams never fail
	}
	return g
}

// RandomTree returns a uniformly random labeled tree (Prüfer sequence).
func RandomTree(n int, seed int64) *Graph {
	if n == 1 {
		return NewBuilder(1).Build()
	}
	if n == 2 {
		return NewBuilder(2).AddEdge(0, 1).Build()
	}
	rng := rand.New(rand.NewSource(seed))
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
		deg[prufer[i]]++
	}
	for v := range deg {
		deg[v]++
	}
	b := NewBuilder(n)
	// Standard Prüfer decoding with a scan pointer.
	ptr := 0
	leaf := -1
	used := make([]bool, n)
	pick := func() int {
		if leaf >= 0 {
			l := leaf
			leaf = -1
			return l
		}
		for used[ptr] || deg[ptr] != 1 {
			ptr++
		}
		used[ptr] = true
		return ptr
	}
	for _, p := range prufer {
		l := pick()
		b.AddEdge(l, p)
		deg[l]--
		deg[p]--
		if deg[p] == 1 && p < ptr {
			leaf = p
		}
	}
	// Two vertices of degree 1 remain.
	var rest []int
	for v := 0; v < n; v++ {
		if deg[v] == 1 && !used[v] {
			rest = append(rest, v)
		}
	}
	b.AddEdge(rest[0], rest[1])
	return b.Build()
}

// RandomGeometric places n points uniformly in the unit square and
// connects pairs within the given radius — the standard model for wireless
// interference graphs (used by the frequency-assignment example).
func RandomGeometric(n int, radius float64, seed int64) (*Graph, [][2]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pts[i][0] - pts[j][0]
			dy := pts[i][1] - pts[j][1]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), pts
}

// Disjoint returns the disjoint union of the given graphs.
func Disjoint(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	b := NewBuilder(total)
	off := 0
	for _, g := range gs {
		g.ForEachEdge(func(u, v int) { b.AddEdge(u+off, v+off) })
		off += g.N()
	}
	return b.Build()
}
