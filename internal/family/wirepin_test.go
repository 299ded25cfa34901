package family

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/fk24"
	"repro/internal/graph"
	"repro/internal/maus21"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// colorDigest is the 64-bit FNV-1a hash of a colouring, each colour as
// eight little-endian bytes (the colouring digest perfbench prints).
func colorDigest(phi []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range phi {
		u := uint64(c)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(u))
			h *= 1099511628211
			u >>= 8
		}
	}
	return h
}

// faultPin is one solve's pinned outcome under a fault schedule: the
// colouring digest, rounds, messages and bits, the fault-ledger totals, and
// the solve's error, if it failed.
type faultPin struct {
	digest                          uint64
	rounds                          int
	messages, bits                  int64
	dropped, corrupted, decodeFault int64
	err                             string
}

// wireFamilies are the three families whose every decode path is hardened
// against corrupted payloads. maus21 runs with k = 2 so its commit stage
// (the one that sends pick messages) runs on the pin graph.
var wireFamilies = []struct {
	name  string
	solve func(r *Run) (coloring.Assignment, sim.Stats, error)
}{
	{"oldc", func(r *Run) (coloring.Assignment, sim.Stats, error) {
		out, err := Lookup("oldc").Solve(r)
		return out.Phi, out.Stats, err
	}},
	{"fk24", func(r *Run) (coloring.Assignment, sim.Stats, error) {
		out, err := Lookup("fk24").Solve(r)
		return out.Phi, out.Stats, err
	}},
	{"maus21", func(r *Run) (coloring.Assignment, sim.Stats, error) {
		phi, _, st, err := maus21.Solve(r.engine(), r.G, maus21.Options{K: 2, SkipValidate: true})
		return phi, st, err
	}},
}

// TestCorruptingFaultPins pins oldc, fk24 and maus21 on a small random
// regular graph under the corrupting built-in chaos schedules: flip-1pct
// (1% single-bit flips) and storm (a crashed hub, 5% drops and 2% flips).
// A change to any wire encoding, decoder or corrupt-payload resolution
// that alters what a receiver accepts moves these numbers.
func TestCorruptingFaultPins(t *testing.T) {
	pins := map[string]faultPin{
		"oldc/flip-1pct":   {0x607e21fc539ac97d, 9, 864, 39072, 0, 4, 0, ""},
		"oldc/storm":       {0x607e21fc539ac97d, 9, 809, 37192, 55, 19, 1, ""},
		"fk24/flip-1pct":   {0x91a0234051a5ff3d, 20, 864, 37560, 0, 6, 1, ""},
		"fk24/storm":       {0x91a0234051a5ff3d, 20, 809, 34666, 55, 13, 1, ""},
		"maus21/flip-1pct": {0xd7f159181d915705, 27, 864, 5472, 0, 5, 0, ""},
		// Storm's faults break the Linial intra stage before the commit stage
		// runs; the pin holds the stats up to the failure.
		"maus21/storm": {0xcbf29ce484222325, 2, 530, 3180, 46, 6, 0, "maus21: intra stage: linial: nodes 6 and 21 share class 1 and color 1"},
	}
	g := graph.RandomRegular(48, 6, 3)
	base := &Run{G: g, Seed: 3, Kappa: 5}
	in, err := BootstrapInput(base)
	if err != nil {
		t.Fatal(err)
	}
	base.In = in
	for _, sched := range chaos.Builtin(g, 11) {
		if sched.Name != "flip-1pct" && sched.Name != "storm" {
			continue
		}
		for _, fam := range wireFamilies {
			name := fam.name + "/" + sched.Name
			r := *base
			r.Engine = sim.Options{Faults: sched.Model}
			phi, st, err := fam.solve(&r)
			f := st.TotalFaults()
			got := faultPin{colorDigest(phi), st.Rounds, st.Messages, st.TotalBits, f.Dropped, f.Corrupted, f.DecodeFaults, ""}
			if err != nil {
				got.err = err.Error()
			}
			if want := pins[name]; got != want {
				t.Errorf("%s: got %s, pinned %s", name, fmtPin(got), fmtPin(want))
			}
		}
	}
}

func fmtPin(p faultPin) string {
	return fmt.Sprintf("{%#016x, %d, %d, %d, %d, %d, %d, %q}", p.digest, p.rounds, p.messages, p.bits, p.dropped, p.corrupted, p.decodeFault, p.err)
}

// twoNodeInput is an OLDC instance on a single edge where both nodes hold
// lists of the same length over a colour space of the given size, so every
// message of a round has the same encoded length and Stats.RoundMaxBits
// is that length.
func twoNodeInput(space int, lists [2][]int) oldc.Input {
	in := oldc.Input{O: graph.OrientByID(graph.Path(2)), SpaceSize: space, InitColors: []int{0, 1}, M: 2}
	for _, l := range lists {
		in.Lists = append(in.Lists, coloring.NodeList{Colors: l, Defect: make([]int, len(l))})
	}
	return in
}

// TestMessageLengthPins pins, bit for bit, the encoded length of every
// message kind the hardened families send, as the per-round largest
// message of a two-node run where all messages of a round are alike:
// the type message in both list encodings (explicit list and
// characteristic vector), the candidate-set index and the commit colour.
func TestMessageLengthPins(t *testing.T) {
	// 3 colours of 16: 1 + 3·4 = 13 < 16 bits, so the explicit list is sent.
	explicit := twoNodeInput(16, [2][]int{{1, 5, 9}, {2, 5, 7}})
	// 12 colours of 16: 1 + 12·4 = 49 ≥ 16 bits, so the bitset is sent.
	bitset := twoNodeInput(16, [2][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15}})
	for _, c := range []struct {
		name string
		run  func() (sim.Stats, error)
		want []int
	}{
		// Round 1: the type message, initial colour (1 bit), γ-class (1 bit),
		// defect 0 (1 bit), branch flag, then 3 + 5 + 12 (explicit) or 16
		// (bitset) list bits. Round 2: the 3-bit candidate-set index; the
		// single γ-class picks its colour without announcing it.
		{"oldc/explicit", func() (sim.Stats, error) {
			_, st, err := oldc.SolveMulti(sim.NewEngine(graph.Path(2)), explicit, oldc.Options{SkipValidate: true})
			return st, err
		}, []int{21, 3}},
		{"oldc/bitset", func() (sim.Stats, error) {
			_, st, err := oldc.SolveMulti(sim.NewEngine(graph.Path(2)), bitset, oldc.Options{SkipValidate: true})
			return st, err
		}, []int{20, 3}},
		// Round 1: the type message, initial colour (1 bit), branch flag,
		// then the list as above. Round 2: the 3-bit candidate-set index.
		// Rounds 3 and 4: the 4-bit commit colour of each bucket.
		{"fk24/explicit", func() (sim.Stats, error) {
			in := fk24.Input{O: explicit.O, SpaceSize: explicit.SpaceSize, Lists: explicit.Lists, InitColors: explicit.InitColors, M: explicit.M}
			_, st, err := fk24.Solve(sim.NewEngine(graph.Path(2)), in, fk24.Options{SkipValidate: true})
			return st, err
		}, []int{19, 3, 4, 4}},
		{"fk24/bitset", func() (sim.Stats, error) {
			in := fk24.Input{O: bitset.O, SpaceSize: bitset.SpaceSize, Lists: bitset.Lists, InitColors: bitset.InitColors, M: bitset.M}
			_, st, err := fk24.Solve(sim.NewEngine(graph.Path(2)), in, fk24.Options{SkipValidate: true})
			return st, err
		}, []int{18, 3, 4, 4}},
	} {
		st, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !slices.Equal(st.RoundMaxBits, c.want) {
			t.Errorf("%s: per-round message bits %v, pinned %v", c.name, st.RoundMaxBits, c.want)
		}
	}
}

// TestPinGraphMessageBits pins the per-round largest message of the
// fault-free solves on the fault-pin graph. oldc's colour rounds, which
// the two-node runs above never reach, and maus21's commit rounds (pick
// messages) show here.
func TestPinGraphMessageBits(t *testing.T) {
	// oldc: four class-selection rounds send nothing on this graph, then
	// type (largest 345 bits), index (3 bits) and 12-bit colour rounds.
	// fk24: type, index, then 18 buckets of 12-bit commit colours.
	// maus21 (d = 2, q1 = q2 = 25): one Defective and one ProperWithin
	// round, then 25 commit rounds; intra colours 0–4 send picks of 5 class
	// bits and 2 palette bits, the other 20 commit rounds are silent.
	pins := map[string][]int{
		"oldc":   {0, 0, 0, 0, 345, 3, 12, 0, 0},
		"fk24":   {340, 3, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12},
		"maus21": {6, 6, 7, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	g := graph.RandomRegular(48, 6, 3)
	r := &Run{G: g, Seed: 3, Kappa: 5}
	in, err := BootstrapInput(r)
	if err != nil {
		t.Fatal(err)
	}
	r.In = in
	for _, fam := range wireFamilies {
		_, st, err := fam.solve(r)
		if err != nil {
			t.Errorf("%s: %v", fam.name, err)
			continue
		}
		if !slices.Equal(st.RoundMaxBits, pins[fam.name]) {
			t.Errorf("%s: per-round message bits %#v, pinned %#v", fam.name, st.RoundMaxBits, pins[fam.name])
		}
	}
}
