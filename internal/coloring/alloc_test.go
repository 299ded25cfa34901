package coloring

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestSquareSumAllocBudget bounds one dense square-sum build: two
// allocations per node, its Colors and Defect slices, plus a constant
// number for the instance and the scratch; and in bytes, the lists with an
// eighth for size-class rounding, plus scratch of O(spaceSize + longest
// list). A reintroduced per-node map, append-grown list or sort buffer
// breaks both. CI's alloc-regression step runs this test.
func TestSquareSumAllocBudget(t *testing.T) {
	const n, beta, space = 512, 64, 1 << 14
	o := graph.OrientByID(graph.RandomRegular(n, beta, 1))
	var in *Instance
	build := func() { in = SquareSumOrientedRange(o, space, 6, 1, 3, 1) }
	allocs := testing.AllocsPerRun(1, build)
	if budget := 2*n + 128; allocs > float64(budget) {
		t.Fatalf("SquareSumOrientedRange allocated %.0f objects, budget %d", allocs, budget)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	listBytes, longest := 0, 0
	for _, l := range in.Lists {
		listBytes += 8 * (cap(l.Colors) + cap(l.Defect))
		longest = max(longest, l.Len())
	}
	bytes := int(after.TotalAlloc - before.TotalAlloc)
	budget := listBytes + listBytes/8 + 48*n + 16*space + 64*longest + 1<<16
	if bytes > budget {
		t.Fatalf("SquareSumOrientedRange allocated %d bytes, budget %d (lists %d)", bytes, budget, listBytes)
	}
	t.Logf("allocations: %.0f objects (budget %d), %d bytes (budget %d, lists %d)", allocs, 2*n+128, bytes, budget, listBytes)
}

// TestSquareSumListCapacity pins the capacity of every list to the one
// appending its colours one at a time gives: the builder's lists keep the
// memory footprint they have always had.
func TestSquareSumListCapacity(t *testing.T) {
	o := graph.OrientByID(graph.RandomRegular(512, 64, 1))
	for v, l := range SquareSumOrientedRange(o, 1<<14, 6, 1, 3, 1).Lists {
		var want []int
		for _, c := range l.Colors {
			want = append(want, c)
		}
		if cap(l.Colors) != cap(want) || cap(l.Defect) != cap(want) || !slices.Equal(l.Colors, want) {
			t.Fatalf("node %d: len %d, caps %d/%d, appended cap %d", v, l.Len(), cap(l.Colors), cap(l.Defect), cap(want))
		}
	}
}
