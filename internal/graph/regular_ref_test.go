package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomRegularRef is the configuration-model generator with the plain
// repair loop: every attempt rescans the pairs from index 0 for the first
// bad one, so an attempt costs O(m). It is the reference RandomRegular
// must match edge for edge and panic for panic; keep it unchanged.
func randomRegularRef(n, d int, seed int64) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n*d even")
	}
	if d >= n {
		panic("graph: RandomRegular needs d < n")
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
	// Repair by double edge swaps: replace a bad pair {u,v} and a random
	// pair {x,y} with {u,x} and {v,y} when that strictly helps.
	for attempt := 0; ; attempt++ {
		if attempt > 1000000 {
			panic(fmt.Sprintf("graph: RandomRegular(%d,%d) failed to converge", n, d))
		}
		badIdx := -1
		for i, e := range pairs {
			if bad(e) {
				badIdx = i
				break
			}
		}
		if badIdx == -1 {
			break
		}
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
	}
	b := NewBuilder(n)
	for _, e := range pairs {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// generate runs gen and returns its graph, or the message it panicked with.
func generate(gen func(n, d int, seed int64) *Graph, n, d int, seed int64) (g *Graph, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return gen(n, d, seed), ""
}

type regularCase struct {
	n, d int
	seed int64
}

// referenceSweep lists the (n, d, seed) inputs on which RandomRegular must
// reproduce randomRegularRef: every small (n, d ≤ n-2), including inputs
// the repair cannot finish, plus a spread of sizes up to n = 512 and
// degrees up to n-1. A d = n-1 input appears only with a seed on which the
// reference converges; the others are pinned by TestRandomRegularComplete.
func referenceSweep() []regularCase {
	var cs []regularCase
	for n := 1; n <= 9; n++ {
		for d := 0; d <= n-2; d++ {
			if n*d%2 != 0 {
				continue
			}
			for seed := int64(0); seed < 3; seed++ {
				cs = append(cs, regularCase{n, d, seed})
			}
		}
	}
	for _, c := range []struct {
		n, d  int
		seeds []int64
	}{
		{1, 0, []int64{0}}, {2, 1, []int64{0, 1}}, {3, 2, []int64{0, 1}}, {4, 3, []int64{0}},
		{12, 11, []int64{1}}, {20, 19, []int64{4}},
		{16, 14, []int64{0, 1, 2}}, {24, 22, []int64{1}}, {32, 30, []int64{1}},
		{100, 50, []int64{0, 1}}, {128, 16, []int64{0, 1, 2}}, {256, 32, []int64{0, 1}},
		{257, 8, []int64{3}}, {512, 8, []int64{0, 1, 2}}, {512, 32, []int64{0}},
	} {
		for _, s := range c.seeds {
			cs = append(cs, regularCase{c.n, c.d, s})
		}
	}
	return cs
}

func TestRandomRegularMatchesReference(t *testing.T) {
	for _, c := range referenceSweep() {
		want, wantPanic := generate(randomRegularRef, c.n, c.d, c.seed)
		got, gotPanic := generate(RandomRegular, c.n, c.d, c.seed)
		if gotPanic != wantPanic {
			t.Errorf("RandomRegular(%d,%d,%d): panic %q, reference %q", c.n, c.d, c.seed, gotPanic, wantPanic)
			continue
		}
		if !reflect.DeepEqual(edgeList(got), edgeList(want)) {
			t.Errorf("RandomRegular(%d,%d,%d): edge list differs from the reference", c.n, c.d, c.seed)
		}
	}
}

// edgeList returns g's edges in ForEachEdge order (nil for a nil graph).
func edgeList(g *Graph) [][2]int {
	if g == nil {
		return nil
	}
	var es [][2]int
	g.ForEachEdge(func(u, v int) { es = append(es, [2]int{u, v}) })
	return es
}

// TestRandomRegularComplete pins RandomRegular(n, n-1, seed) to K_n, the
// only (n-1)-regular graph on n vertices: on seeds where the reference
// repair converges to it, on seeds where the reference gives up after a
// million attempts, and at n = 200.
func TestRandomRegularComplete(t *testing.T) {
	converging := []regularCase{{1, 0, 0}, {2, 1, 0}, {3, 2, 1}, {4, 3, 0}, {5, 4, 0}, {12, 11, 1}, {20, 19, 4}}
	failing := []regularCase{{4, 3, 1}, {12, 11, 0}, {20, 19, 0}, {60, 59, 0}}
	for _, c := range append(append(converging, failing...), regularCase{200, 199, 0}) {
		got := RandomRegular(c.n, c.d, c.seed)
		if !reflect.DeepEqual(edgeList(got), edgeList(Clique(c.n))) {
			t.Errorf("RandomRegular(%d,%d,%d) is not K_%d", c.n, c.d, c.seed, c.n)
		}
	}
}

// TestRandomRegularNoConvergence pins the panic of an input the repair
// cannot finish in a million attempts.
func TestRandomRegularNoConvergence(t *testing.T) {
	_, msg := generate(RandomRegular, 200, 198, 1)
	if want := "graph: RandomRegular(200,198) failed to converge"; msg != want {
		t.Fatalf("RandomRegular(200,198,1) panicked with %q, want %q", msg, want)
	}
}
