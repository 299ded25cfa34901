// Package linial implements the classic color-reduction substrate the
// paper builds on:
//
//   - Linial's one-round color reduction via polynomial (Reed–Solomon)
//     cover-free families [Lin87], iterated to reach O(β²) colors in
//     O(log* m) rounds;
//   - Kuhn's defective variant [Kuh09], which trades defect for a smaller
//     color space (d-defective colorings with O((β·D/(d+1))²) colors);
//   - an SV93/BEG18-style "pair/singleton row shift" reduction that turns a
//     proper O(Δ²)-coloring into a proper O(Δ)-coloring in O(Δ) rounds, and
//     its arbdefective generalization (d-arbdefective O(Δ/d)-coloring in
//     O(Δ/d + log* n) rounds), used as the bootstrap clustering for the
//     paper's Theorem 1.3.
package linial

import (
	"fmt"
	"math/bits"
)

// SmallestPrimeAtLeast returns the smallest prime >= n (n >= 2).
func SmallestPrimeAtLeast(n int) int {
	if n <= 2 {
		return 2
	}
	for p := n; ; p++ {
		if isPrime(p) {
			return p
		}
	}
}

func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

// polyEval evaluates the polynomial whose base-q digits are the
// coefficients of c at point x over GF(q): f_c(x) = Σ digit_i(c) x^i mod q.
// Distinct values c < q^(deg+1) give distinct polynomials of degree <= deg,
// which agree on at most deg points — the cover-free property Linial's
// reduction needs.
func polyEval(c, x, q, deg int) int {
	// Horner evaluation over the base-q digit expansion, highest digit
	// first.
	digits := make([]int, deg+1)
	for i := 0; i <= deg; i++ {
		digits[i] = c % q
		c /= q
	}
	if c != 0 {
		panic(fmt.Sprintf("linial: color does not fit in %d base-%d digits", deg+1, q))
	}
	acc := 0
	for i := deg; i >= 0; i-- {
		acc = (acc*x + digits[i]) % q
	}
	return acc
}

// gfStep is a reusable fast evaluator for one reduction step's field GF(q):
// it caches the Barrett reciprocal for mod-q reduction and the base-q digit
// expansion of one loaded color, so digit splits and polynomial
// evaluations run without integer division or allocation. Outputs are
// bit-identical to the naive polyEval — the equivalence test and fuzz
// target in gf_test.go pin this.
type gfStep struct {
	q      uint64
	mhi    uint64 // ⌊2^63 / q⌋, the Barrett reciprocal
	deg    int
	digits []uint64 // base-q digits of the loaded color, ascending
}

// init (re)configures the evaluator for a step, reusing the digit buffer
// and, when the field is unchanged, the reciprocal. q must fit in 31 bits
// so every Horner accumulator stays below 2^63; chooseStep's fields are
// tiny, so the guard is a correctness backstop, not a practical limit.
func (s *gfStep) init(sp stepParams) {
	if sp.q < 2 || sp.q >= 1<<31 {
		panic(fmt.Sprintf("linial: field size %d outside [2, 2^31)", sp.q))
	}
	if s.q != uint64(sp.q) {
		s.q = uint64(sp.q)
		s.mhi = (uint64(1) << 63) / s.q
	}
	s.deg = sp.deg
	if cap(s.digits) < sp.deg+1 {
		s.digits = make([]uint64, sp.deg+1)
	}
	s.digits = s.digits[:sp.deg+1]
}

// divmod returns ⌊v/q⌋ and v mod q by Barrett reduction: qhat =
// ⌊v·mhi/2^63⌋ never exceeds ⌊v/q⌋ (mhi ≤ 2^63/q) and, for any 64-bit v,
// falls at most two short of it, leaving at most two correction steps and
// no hardware divide.
func (s *gfStep) divmod(v uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(v, s.mhi)
	quo := hi<<1 | lo>>63
	r := v - quo*s.q
	for r >= s.q {
		r -= s.q
		quo++
	}
	return quo, r
}

// reduce returns v mod q.
func (s *gfStep) reduce(v uint64) uint64 {
	_, r := s.divmod(v)
	return r
}

// split writes the len(dst) base-q digits of color c into dst, ascending,
// mirroring polyEval's expansion (including its does-not-fit panic).
func (s *gfStep) split(c int, dst []uint64) {
	u := uint64(c)
	for i := range dst {
		u, dst[i] = s.divmod(u)
	}
	if u != 0 {
		panic(fmt.Sprintf("linial: color does not fit in %d base-%d digits", len(dst), s.q))
	}
}

// load decomposes color c into the evaluator's digit buffer.
func (s *gfStep) load(c int) { s.split(c, s.digits) }

// evalAt returns the loaded polynomial's value at x — the same
// highest-digit-first Horner recurrence as polyEval, with the modulus
// taken by reduce. Requires x < q.
func (s *gfStep) evalAt(x uint64) uint64 {
	acc := uint64(0)
	for i := s.deg; i >= 0; i-- {
		acc = s.reduce(acc*x + s.digits[i])
	}
	return acc
}

// rootTable lists, for one reduction step (q, D), the roots in GF(q) of
// every monic polynomial of degree 1..D, so the collision kernel can look
// up where two color polynomials agree instead of evaluating both at all
// q points. The monic polynomial x^k + h_{k-1}x^{k-1} + … + h_0 has index
// first[k] + Σ h_i q^i and its roots, ascending, are
// roots[off[idx]:off[idx+1]]. The q^k polynomials of degree k hold exactly
// q^k roots between them — each point x and choice of h_1..h_{k-1} fixes
// h_0 — so the table has Σ_k q^k entries of each kind, under 2·q^D.
// A table is read-only once built and is shared by all Inbox callbacks.
type rootTable struct {
	sp    stepParams
	first []int // first[k]: index of the first degree-k polynomial, k ∈ [1, D+1]
	off   []int32
	roots []int32
	inv   []uint64 // inv[a] = a⁻¹ mod q for a ∈ [1, q)
}

// rootTableEntries returns Σ_{k=1..D} q^k, the number of polynomials (and
// of roots) in sp's table, saturating at limit.
func rootTableEntries(sp stepParams, limit int) int {
	total, pow := 0, 1
	for k := 1; k <= sp.deg; k++ {
		if pow > limit/sp.q {
			return limit
		}
		pow *= sp.q
		if total += pow; total >= limit {
			return limit
		}
	}
	return total
}

// newRootTable builds sp's table by enumeration rather than evaluation.
// For degree k it walks the upper coefficients u = (h_1..h_{k-1}) in
// base-q order while keeping z_u(x) = −(x^k + Σ_{i≥1} h_i x^i) mod q for
// every x; stepping u adds 1 to h_1..h_j modulo q (the carried digits
// wrap from q−1 to 0, which is also +1), so z_u(x) falls by
// Σ_{i=1..j} x^i. The polynomial with constant term h_0 vanishes at x
// exactly when h_0 = z_u(x), so a counting sort of x by z_u(x) lays out
// u's q polynomials. The build is O(q^D) work in a constant number of
// allocations.
func newRootTable(sp stepParams) *rootTable {
	q, deg := sp.q, sp.deg
	t := &rootTable{sp: sp, first: make([]int, deg+2)}
	for k := 1; k <= deg; k++ {
		pow := 1
		for i := 0; i < k; i++ {
			pow *= q
		}
		t.first[k+1] = t.first[k] + pow
	}
	total := t.first[deg+1]
	t.off = make([]int32, total+1)
	t.roots = make([]int32, total)

	// Modular inverses by inv[a] = −⌊q/a⌋·inv[q mod a].
	t.inv = make([]uint64, q)
	t.inv[1] = 1
	for a := 2; a < q; a++ {
		t.inv[a] = uint64(q-q/a) * t.inv[q%a] % uint64(q)
	}

	// Scratch: sum[(j-1)·q + x] = Σ_{i=1..j} x^i mod q for j ∈ [1, D],
	// then z, the per-point cursor of the counting sort, and u's digits.
	scratch := make([]int, (deg+2)*q+deg)
	sum, z, pos, digit := scratch[:deg*q], scratch[deg*q:(deg+1)*q], scratch[(deg+1)*q:(deg+2)*q], scratch[(deg+2)*q:]
	for x := 0; x < q; x++ {
		pw, acc := 1, 0
		for j := 1; j <= deg; j++ {
			pw = pw * x % q
			acc = (acc + pw) % q
			sum[(j-1)*q+x] = acc
		}
	}
	for k := 1; k <= deg; k++ {
		for x := 0; x < q; x++ { // z_0(x) = −x^k
			pw := 1
			for i := 0; i < k; i++ {
				pw = pw * x % q
			}
			z[x] = (q - pw) % q
		}
		for i := range digit {
			digit[i] = 0
		}
		for base := t.first[k]; base < t.first[k+1]; base += q {
			// off[base] = base already: every earlier block holds q roots.
			ends := t.off[base+1 : base+1+q]
			for _, h0 := range z {
				ends[h0]++
			}
			acc := int32(base)
			for h0, c := range ends {
				pos[h0] = int(acc)
				acc += c
				ends[h0] = acc
			}
			for x, h0 := range z {
				t.roots[pos[h0]] = int32(x)
				pos[h0]++
			}
			// Step u: h_1..h_{j-1} wrap to 0 and h_j gains 1.
			j := 1
			for j < k && digit[j-1] == q-1 {
				digit[j-1] = 0
				j++
			}
			if j < k {
				digit[j-1]++
			}
			sub := sum[(j-1)*q : j*q]
			for x := 0; x < q; x++ {
				if z[x] -= sub[x]; z[x] < 0 {
					z[x] += q
				}
			}
		}
	}
	return t
}

// collide adds one to cnt[x] for every point x ∈ GF(q) at which the
// polynomials with base-q digits a and b agree. Their difference g has
// digits a_i − b_i; when its degree k is at least 1, scaling by g_k⁻¹
// makes it monic with the same roots, which the table lists. Colors that
// differ only in the constant digit (k = 0) never agree; equal colors,
// which the caller skips, add nothing either.
func (t *rootTable) collide(gf *gfStep, a, b []uint64, cnt []int32) {
	k := 0
	for i := len(a) - 1; i > 0; i-- {
		if a[i] != b[i] {
			k = i
			break
		}
	}
	if k == 0 {
		return
	}
	q := gf.q
	inv := t.inv[gf.reduce(a[k]+q-b[k])]
	idx := 0
	for i := k - 1; i >= 0; i-- {
		idx = idx*int(q) + int(gf.reduce((a[i]+q-b[i])*inv))
	}
	idx += t.first[k]
	for _, r := range t.roots[t.off[idx]:t.off[idx+1]] {
		cnt[r]++
	}
}

// stepParams holds the parameters of one polynomial reduction step.
type stepParams struct {
	q   int // field size (prime)
	deg int // polynomial degree bound D
}

// chooseStep picks the cheapest polynomial step that maps an m-coloring to
// a q²-coloring: the smallest degree D >= 1 such that the smallest prime
// q > qFloor(D) satisfies q^(D+1) >= m.
func chooseStep(m int, qFloor func(deg int) int) stepParams {
	for deg := 1; ; deg++ {
		q := SmallestPrimeAtLeast(qFloor(deg) + 1)
		if powAtLeast(q, deg+1, m) {
			return stepParams{q: q, deg: deg}
		}
	}
}

// powAtLeast reports q^e >= m. Values stay far below overflow because the
// loop exits as soon as the accumulator reaches m.
func powAtLeast(q, e, m int) bool {
	acc := 1
	for i := 0; i < e; i++ {
		acc *= q
		if acc >= m {
			return true
		}
	}
	return acc >= m
}
