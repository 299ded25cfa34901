package oldc

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestSolveAllocBudget pins an allocation ceiling for a full Solve on a
// small Δ=8 instance. The budget sits well above the measured steady
// state, so scheduler noise never trips it, but tight enough that a
// reintroduced per-neighbor or per-round allocation — the regressions the
// arena/kernel work removed — blows through it immediately. CI's
// bench-smoke job runs this test.
func TestSolveAllocBudget(t *testing.T) {
	const n, delta, space = 128, 8, 1 << 12
	g := graph.RandomRegular(n, delta, 1)
	o := graph.OrientByID(g)
	init := make([]int, n)
	for i := range init {
		init[i] = i
	}
	inst := coloring.SquareSumOriented(o, space, 5.0, 3, 7)
	in := Input{O: o, SpaceSize: space, Lists: inst.Lists, InitColors: init, M: n}
	solve := func() {
		eng := sim.NewEngine(g)
		if _, _, err := Solve(eng, in, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, solve)
	// Measured ≈650 on the reference machine; a single reintroduced
	// per-neighbor-per-round allocation adds ≥ n·Δ ≈ 1000 per round.
	const budget = 5000
	if allocs > budget {
		t.Fatalf("Solve allocated %.0f objects, budget %d", allocs, budget)
	}
	t.Logf("Solve allocations: %.0f (budget %d)", allocs, budget)
}
