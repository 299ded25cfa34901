// Package coloring defines the list defective coloring problem family from
// Fuchs & Kuhn (Definition 1.1): list defective colorings (LDC) on
// undirected graphs, oriented list defective colorings (OLDC) on directed
// graphs, and list arbdefective colorings where the orientation is part of
// the output. It provides instance representations, validators, the
// existence conditions (1) and (2) from the paper, and instance generators
// used throughout the tests and experiments.
//
// Colors are dense integers in [0, SpaceSize). Every node v carries a
// parallel pair of slices (Colors, Defect): choosing Colors[i] allows at
// most Defect[i] (out-)neighbors of the same color.
package coloring

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// NodeList is the color list L_v together with the defect function d_v,
// represented as parallel slices sorted by color.
type NodeList struct {
	Colors []int
	Defect []int
}

// Clone returns a deep copy.
func (l NodeList) Clone() NodeList {
	return NodeList{Colors: append([]int(nil), l.Colors...), Defect: append([]int(nil), l.Defect...)}
}

// Len returns |L_v|.
func (l NodeList) Len() int { return len(l.Colors) }

// DefectOf returns d_v(x) and whether x ∈ L_v.
func (l NodeList) DefectOf(x int) (int, bool) {
	i := sort.SearchInts(l.Colors, x)
	if i < len(l.Colors) && l.Colors[i] == x {
		return l.Defect[i], true
	}
	return 0, false
}

// WeightSum returns Σ_{x∈L_v} (d_v(x)+1).
func (l NodeList) WeightSum() int {
	s := 0
	for _, d := range l.Defect {
		s += d + 1
	}
	return s
}

// SquareSum returns Σ_{x∈L_v} (d_v(x)+1)².
func (l NodeList) SquareSum() int {
	s := 0
	for _, d := range l.Defect {
		s += (d + 1) * (d + 1)
	}
	return s
}

// Validate checks sortedness, uniqueness, range, and defect non-negativity.
func (l NodeList) Validate(spaceSize int) error {
	if len(l.Colors) != len(l.Defect) {
		return fmt.Errorf("coloring: colors/defect length mismatch %d vs %d", len(l.Colors), len(l.Defect))
	}
	for i, c := range l.Colors {
		if c < 0 || c >= spaceSize {
			return fmt.Errorf("coloring: color %d outside space [0,%d)", c, spaceSize)
		}
		if i > 0 && l.Colors[i-1] >= c {
			return fmt.Errorf("coloring: list not strictly sorted at index %d", i)
		}
		if l.Defect[i] < 0 {
			return fmt.Errorf("coloring: negative defect %d for color %d", l.Defect[i], c)
		}
	}
	return nil
}

// Instance is a list defective coloring instance on an undirected graph
// (communication always happens over G; the oriented variant pairs this
// with a graph.Oriented).
type Instance struct {
	G         *graph.Graph
	SpaceSize int
	Lists     []NodeList
}

// MaxListSize returns Λ = max_v |L_v|.
func (in *Instance) MaxListSize() int {
	m := 0
	for _, l := range in.Lists {
		if l.Len() > m {
			m = l.Len()
		}
	}
	return m
}

// Validate checks structural invariants of the instance.
func (in *Instance) Validate() error {
	if len(in.Lists) != in.G.N() {
		return fmt.Errorf("coloring: %d lists for %d nodes", len(in.Lists), in.G.N())
	}
	for v, l := range in.Lists {
		if err := l.Validate(in.SpaceSize); err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
	}
	return nil
}

// Assignment is a (partial) coloring; Unset marks uncolored nodes.
type Assignment []int

// Unset marks an uncolored node in an Assignment.
const Unset = -1

// NewAssignment returns an all-Unset assignment for n nodes.
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = Unset
	}
	return a
}

// Complete reports whether every node is colored.
func (a Assignment) Complete() bool {
	for _, c := range a {
		if c == Unset {
			return false
		}
	}
	return true
}

// --- Existence conditions (Section 1, conditions (1) and (2)) ---

// CondExistsLDC reports whether condition (1) holds at every node:
// Σ_{x∈L_v}(d_v(x)+1) > deg(v).
func CondExistsLDC(in *Instance) bool {
	for v, l := range in.Lists {
		if l.WeightSum() <= in.G.Degree(v) {
			return false
		}
	}
	return true
}

// CondExistsArb reports whether condition (2) holds at every node:
// Σ_{x∈L_v}(2·d_v(x)+1) > deg(v).
func CondExistsArb(in *Instance) bool {
	for v, l := range in.Lists {
		s := 0
		for _, d := range l.Defect {
			s += 2*d + 1
		}
		if s <= in.G.Degree(v) {
			return false
		}
	}
	return true
}

// CondPowerSum reports whether Σ_{x∈L_v}(d_v(x)+1)^{1+ν} ≥ β_v^{1+ν}·κ holds
// at every node of the oriented instance (the Theorem 1.1/1.2 style
// condition with exponent 1+ν).
func CondPowerSum(o *graph.Oriented, lists []NodeList, nu float64, kappa float64) bool {
	for v, l := range lists {
		var s float64
		for _, d := range l.Defect {
			s += pow1p(float64(d+1), nu)
		}
		if s < pow1p(float64(o.OutDegree(v)), nu)*kappa {
			return false
		}
	}
	return true
}

func pow1p(x, nu float64) float64 {
	// x^(1+nu) for x >= 1.
	if nu == 1 {
		return x * x
	}
	if nu == 0 {
		return x
	}
	return math.Pow(x, 1+nu)
}

// --- Generators ---

// DegreePlusOne returns the (degree+1)-list coloring instance: each node
// draws deg(v)+1 distinct colors from [0, spaceSize) with zero defects.
// spaceSize must be at least Δ+1.
func DegreePlusOne(g *graph.Graph, spaceSize int, seed int64) *Instance {
	if spaceSize < g.MaxDegree()+1 {
		panic("coloring: space too small for degree+1 lists")
	}
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: g, SpaceSize: spaceSize, Lists: make([]NodeList, g.N())}
	for v := 0; v < g.N(); v++ {
		k := g.Degree(v) + 1
		colors := sampleDistinct(rng, spaceSize, k)
		in.Lists[v] = NodeList{Colors: colors, Defect: make([]int, k)}
	}
	return in
}

// Standard returns the standard (Δ+1)-coloring instance: every node has
// list {0..Δ} with zero defects.
func Standard(g *graph.Graph) *Instance {
	delta := g.MaxDegree()
	colors := make([]int, delta+1)
	for i := range colors {
		colors[i] = i
	}
	in := &Instance{G: g, SpaceSize: delta + 1, Lists: make([]NodeList, g.N())}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: append([]int(nil), colors...), Defect: make([]int, delta+1)}
	}
	return in
}

// UniformDefective returns an instance where every node gets listSize
// random colors, each with the given defect.
func UniformDefective(g *graph.Graph, spaceSize, listSize, defect int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: g, SpaceSize: spaceSize, Lists: make([]NodeList, g.N())}
	for v := 0; v < g.N(); v++ {
		colors := sampleDistinct(rng, spaceSize, listSize)
		def := make([]int, listSize)
		for i := range def {
			def[i] = defect
		}
		in.Lists[v] = NodeList{Colors: colors, Defect: def}
	}
	return in
}

// SquareSumOriented builds an OLDC instance on the oriented graph o that
// satisfies Σ(d_v(x)+1)² ≥ β_v²·kappa at every node, with defects varying
// across the list (mixing powers of two between 0 and maxDefect). It
// returns the instance over a space of the given size.
func SquareSumOriented(o *graph.Oriented, spaceSize int, kappa float64, maxDefect int, seed int64) *Instance {
	return SquareSumOrientedRange(o, spaceSize, kappa, 0, maxDefect, seed)
}

// SquareSumOrientedRange is SquareSumOriented with a lower bound on the
// per-color defects (robustness experiments use minDefect ≥ 1 so that a
// single stray collision is absorbed).
func SquareSumOrientedRange(o *graph.Oriented, spaceSize int, kappa float64, minDefect, maxDefect int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: o.Graph(), SpaceSize: spaceSize, Lists: make([]NodeList, o.N())}
	// Scratch shared by all nodes: drawn holds a node's colours, the
	// bitset used marks them and defOf holds their defects. used is
	// cleared before the next node; defOf is read at marked colours only.
	used := make([]uint64, (max(spaceSize, 0)+63)/64)
	defOf := make([]int, max(spaceSize, 0))
	var drawn []int
	var caps appendCaps
	for v := 0; v < o.N(); v++ {
		beta := o.OutDegree(v)
		target := float64(beta*beta) * kappa
		drawn = drawn[:0]
		var sum float64
		for sum < target {
			c := rng.Intn(spaceSize)
			if used[c/64]&(1<<(c%64)) != 0 {
				if len(drawn) >= spaceSize {
					panic("coloring: color space exhausted while meeting square-sum target")
				}
				continue
			}
			d := minDefect
			if maxDefect > minDefect {
				d = (1 << uint(rng.Intn(log2floor(maxDefect)+2))) - 1
				if d > maxDefect {
					d = maxDefect
				}
				if d < minDefect {
					d = minDefect
				}
			}
			used[c/64] |= 1 << (c % 64)
			defOf[c] = d
			drawn = append(drawn, c)
			sum += float64((d + 1) * (d + 1))
		}
		// Each list gets the capacity appending one colour at a time
		// would give it, as it always had: exact-size lists would shrink
		// the live heap the solves start from and move their GC pacing.
		var colors, defs []int
		if k := len(drawn); k > 0 {
			c := caps.of(k)
			colors, defs = make([]int, 0, c), make([]int, 0, c)
		}
		if len(drawn) >= len(used) {
			// A long list: reading it off the bitset in colour order
			// costs less than sorting it.
			for w, word := range used {
				for ; word != 0; word &= word - 1 {
					c := w*64 + bits.TrailingZeros64(word)
					colors = append(colors, c)
					defs = append(defs, defOf[c])
				}
				used[w] = 0
			}
		} else {
			slices.Sort(drawn)
			for _, c := range drawn {
				colors = append(colors, c)
				defs = append(defs, defOf[c])
				used[c/64] &^= 1 << (c % 64)
			}
		}
		in.Lists[v] = NodeList{Colors: colors, Defect: defs}
	}
	return in
}

// appendCaps finds the capacity of a nil []int after k appends of one
// element each, so that a slice can be allocated once with it.
type appendCaps struct {
	probe []int // appended to one element at a time
	caps  []int // the capacities probe has passed through, ascending
}

func (a *appendCaps) of(k int) int {
	for len(a.probe) < k {
		a.probe = append(a.probe, 0)
		if len(a.caps) == 0 || a.caps[len(a.caps)-1] != cap(a.probe) {
			a.caps = append(a.caps, cap(a.probe))
		}
	}
	i, _ := slices.BinarySearch(a.caps, k)
	return a.caps[i]
}

// CliqueUniform returns the tightness gadget from Appendix A: the clique
// K_{n} where every node has the same list and defect function. weightSum
// controls Σ(d+1): passing weightSum == n-1 makes condition (1) fail by
// exactly one.
func CliqueUniform(n int, defect int, weightSum int) *Instance {
	g := graph.Clique(n)
	per := defect + 1
	k := weightSum / per
	rem := weightSum % per
	var colors []int
	var defs []int
	for i := 0; i < k; i++ {
		colors = append(colors, i)
		defs = append(defs, defect)
	}
	if rem > 0 {
		colors = append(colors, k)
		defs = append(defs, rem-1)
	}
	space := len(colors)
	in := &Instance{G: g, SpaceSize: space, Lists: make([]NodeList, n)}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: append([]int(nil), colors...), Defect: append([]int(nil), defs...)}
	}
	return in
}

func sampleDistinct(rng *rand.Rand, space, k int) []int {
	if k > space {
		panic(fmt.Sprintf("coloring: cannot sample %d distinct colors from space %d", k, space))
	}
	if k*3 >= space {
		perm := rng.Perm(space)[:k]
		sort.Ints(perm)
		return perm
	}
	used := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		c := rng.Intn(space)
		if !used[c] {
			used[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func log2floor(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}
