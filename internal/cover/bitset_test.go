package cover

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// The ColorSet kernels must compute exactly the counts of the sorted-slice
// reference implementation for every τ ≥ 1 and Gap ∈ {0, 1, 3} — the
// algorithms route their hot path through the bitset forms, and output
// colorings are pinned bit-for-bit to the reference (oldc golden tests).

func TestColorSetRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(40)
		c := randSet(rng, size, size+rng.Intn(500)) // space ≥ size or randSet spins
		s := NewColorSet(c)
		if s.Count() != len(c) {
			return false
		}
		for _, x := range c {
			if !s.Contains(x) {
				return false
			}
		}
		// Probe absent colors too.
		for i := 0; i < 20; i++ {
			x := rng.Intn(600)
			if s.Contains(x) != contains(c, x) {
				return false
			}
		}
		return !s.Contains(-1) && !s.Contains(1<<20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestColorSetEmpty(t *testing.T) {
	if s := NewColorSet(nil); s != nil {
		t.Fatalf("empty set should pack to nil, got %v", s)
	}
	var s ColorSet
	if s.Count() != 0 || s.Contains(0) || s.MuG(3, 2) != 0 {
		t.Fatal("nil ColorSet must behave as the empty set")
	}
	if s.IntersectCount(NewColorSet([]int{1, 2})) != 0 {
		t.Fatal("nil intersect")
	}
}

func TestMuGBitsMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(50)
		c := randSet(rng, size, size+rng.Intn(700)) // space ≥ size or randSet spins
		s := NewColorSet(c)
		for _, g := range []int{0, 1, 3, 64, 130} {
			for i := 0; i < 30; i++ {
				x := rng.Intn(800) - 20
				if s.MuG(x, g) != MuG(x, c, g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictKernelsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := 64 + rng.Intn(1000)
		c1 := randSet(rng, 1+rng.Intn(60), space)
		c2 := randSet(rng, 1+rng.Intn(60), space)
		b1, b2 := NewColorSet(c1), NewColorSet(c2)
		for _, g := range []int{0, 1, 3} {
			want := ConflictWeight(c1, c2, g)
			if b1.ConflictWeight(b2, g) != want {
				return false
			}
			for _, tau := range []int{1, 2, want, want + 1} {
				if tau < 1 {
					continue
				}
				ref := TauGConflict(c1, c2, tau, g)
				if b1.TauGConflict(b2, tau, g) != ref {
					return false
				}
				if TauGConflictSet(c1, b2, tau, g) != ref {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftedIntersectCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := randSet(rng, 1+rng.Intn(40), 300)
		c2 := randSet(rng, 1+rng.Intn(40), 300)
		a, b := NewColorSet(c1), NewColorSet(c2)
		for d := -130; d <= 130; d += 13 {
			want := 0
			for _, x := range c1 {
				if contains(c2, x-d) {
					want++
				}
			}
			if ShiftedIntersectCount(a, b, d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPsiCountSetsMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := 256 + rng.Intn(800)
		mk := func(c int) ([][]int, []ColorSet) {
			fam := Family(Type{InitColor: c, List: randSet(rng, 40, space), SetSize: 8, NumSets: 5})
			bits := make([]ColorSet, len(fam))
			for i, s := range fam {
				bits[i] = NewColorSet(s)
			}
			return fam, bits
		}
		k1, b1 := mk(rng.Intn(64))
		k2, b2 := mk(rng.Intn(64))
		for _, g := range []int{0, 1, 3} {
			tau := 1 + rng.Intn(4)
			if PsiCountSets(b1, b2, tau, g) != PsiCount(k1, k2, tau, g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCachedFamilyMatchesFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		ty := Type{
			InitColor: rng.Intn(100),
			List:      randSet(rng, 1+rng.Intn(80), 1+rng.Intn(2000)),
			SetSize:   1 + rng.Intn(20),
			NumSets:   1 + rng.Intn(10),
		}
		cf := NewCachedFamily(ty)
		want := Family(ty)
		if !reflect.DeepEqual(cf.Sets, want) {
			t.Fatalf("type %d: cached sets diverge from Family", i)
		}
		if !reflect.DeepEqual(cf.List, ty.List) {
			t.Fatalf("type %d: cached list diverges from the type's list", i)
		}
		// The compact index is the exact transpose of set membership: each
		// list color covered by at least one set appears once, in list
		// order, with the mask of exactly the sets containing it.
		k := 0
		for _, x := range ty.List {
			var m uint64
			for s, set := range cf.Sets {
				if contains(set, x) {
					m |= 1 << uint(s)
				}
			}
			if m == 0 {
				continue
			}
			if k >= len(cf.NzColors) || cf.NzColors[k] != x || cf.NzMask[k] != m {
				t.Fatalf("type %d: compact row %d disagrees with membership of color %d", i, k, x)
			}
			k++
		}
		if k != len(cf.NzColors) || len(cf.NzColors) != len(cf.NzMask) {
			t.Fatalf("type %d: %d compact rows, expected %d", i, len(cf.NzColors), k)
		}
	}
}

// TestFamilyConflictMaskMatchesReference pins the batched bit-sliced
// family kernel to the scalar set-by-set sweep for every τ and gap the
// algorithms use, including τ values around each pair's exact conflict
// weight (the threshold compare's edge).
func TestFamilyConflictMaskMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := 64 + rng.Intn(1500)
		mk := func() *CachedFamily {
			return NewCachedFamily(Type{
				InitColor: rng.Intn(100),
				List:      randSet(rng, 1+rng.Intn(60), space),
				SetSize:   1 + rng.Intn(16),
				NumSets:   1 + rng.Intn(20),
			})
		}
		f1, f2 := mk(), mk()
		var k ConflictKernel
		for _, g := range []int{0, 1, 3} {
			maxW := 0
			for _, c1 := range f1.Sets {
				for _, c2 := range f2.Sets {
					if w := ConflictWeight(c1, c2, g); w > maxW {
						maxW = w
					}
				}
			}
			for _, tau := range []int{1, 2, 3, maxW - 1, maxW, maxW + 1, kernelMaxTau} {
				if tau < 1 {
					continue
				}
				want := familyConflictMaskSlow(f1, f2, tau, g)
				if k.FamilyConflictMask(f1, f2, tau, g) != want {
					return false
				}
				// The reused kernel must leave no state behind: a second
				// call and the one-shot form agree with the first.
				if k.FamilyConflictMask(f1, f2, tau, g) != want {
					return false
				}
				if FamilyConflictMask(f1, f2, tau, g) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyConflictMaskFallbacks covers the paths that bypass the
// bit-sliced counters: families beyond 64 sets (no compact membership
// index) and τ beyond the counter range.
func TestFamilyConflictMaskFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	big := NewCachedFamily(Type{InitColor: 1, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 70})
	if big.NzMask != nil {
		t.Fatal("families beyond 64 sets must not carry the compact membership index")
	}
	small := NewCachedFamily(Type{InitColor: 2, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 8})
	for _, pair := range [][2]*CachedFamily{{big, small}, {small, big}, {big, big}} {
		if got, want := FamilyConflictMask(pair[0], pair[1], 2, 0), familyConflictMaskSlow(pair[0], pair[1], 2, 0); got != want {
			t.Fatalf("fallback mask %x want %x", got, want)
		}
	}
	if got, want := FamilyConflictMask(small, small, kernelMaxTau+1, 0), familyConflictMaskSlow(small, small, kernelMaxTau+1, 0); got != want {
		t.Fatalf("large-τ fallback mask %x want %x", got, want)
	}
	empty := NewCachedFamily(Type{InitColor: 3, List: nil, SetSize: 4, NumSets: 8})
	if FamilyConflictMask(empty, small, 2, 0) != 0 || FamilyConflictMask(small, empty, 2, 0) != 0 {
		t.Fatal("empty families conflict with nothing")
	}
}

func TestFamilyCacheHitsAndKeying(t *testing.T) {
	c := NewFamilyCache()
	t1 := Type{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 3}
	f1 := c.Get(t1)
	if c.Get(t1) != f1 {
		t.Fatal("equal types must hit the same cache entry")
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d want 1", c.Len())
	}
	// Every field participates in the key.
	for _, t2 := range []Type{
		{InitColor: 4, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 14}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 3, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 4},
	} {
		if c.Get(t2) == f1 {
			t.Fatalf("distinct type %+v must not collide", t2)
		}
	}
	if c.Len() != 6 {
		t.Fatalf("Len=%d want 6", c.Len())
	}
}

func TestFamilyCacheConcurrentDeterminism(t *testing.T) {
	// Concurrent Gets for overlapping types (the engine's parallel Inbox
	// callbacks) must all observe families identical to the direct
	// derivation, regardless of interleaving.
	rng := rand.New(rand.NewSource(21))
	types := make([]Type, 32)
	for i := range types {
		types[i] = Type{
			InitColor: i % 7, // force cross-goroutine key overlap
			List:      randSet(rng, 30, 500),
			SetSize:   6,
			NumSets:   8,
		}
	}
	cache := NewFamilyCache()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range types {
				ty := types[(i+w)%len(types)]
				got := cache.Get(ty)
				if !reflect.DeepEqual(got.Sets, Family(ty)) {
					errs <- "cached family diverges from direct derivation"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if cache.Len() != len(types) {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), len(types))
	}
}

func contains(sorted []int, x int) bool {
	for _, c := range sorted {
		if c == x {
			return true
		}
	}
	return false
}
