package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// outputDigest hashes a run's colouring (or, for an MIS, its independent
// set as 0/1 values), each value as eight little-endian bytes — the
// colouring digest perfbench prints.
func outputDigest(out output) uint64 {
	vals := out.Coloring
	if out.Independent != nil {
		vals = make([]int, len(out.Independent))
		for v, in := range out.Independent {
			if in {
				vals[v] = 1
			}
		}
	}
	b := make([]byte, 0, 8*len(vals))
	for _, c := range vals {
		u := uint64(c)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u))
			u >>= 8
		}
	}
	return fnv1a(b)
}

var algos = []string{"delta1", "linear", "slow", "luby", "degluby", "greedy", "mis", "mis-luby", "oldc", "fk24", "maus21"}

// runPin is one algorithm's pinned outcome on pinArgs: the output digest,
// rounds, messages and bits, and the digest of its -trace bytes (0 for the
// algorithms that run no simulator engine).
type runPin struct {
	digest   uint64
	rounds   int
	messages int64
	bits     int64
	trace    uint64
}

var pinArgs = []string{"-graph", "regular", "-n", "48", "-deg", "6", "-seed", "3"}

// knobPins are the extra TestAlgoPins rows that set a family's knob: on
// the pin graph maus21 with the default k = 0 runs no rounds at all.
var knobPins = []string{"maus21 -k 2", "fk24 -buckets 1000", "oldc -kappa 6", "fk24 -kappa 6"}

// TestAlgoPins pins every -algo value's output on one small graph, and the
// exact -trace stream of every engine-backed one, so a change to the
// dispatch cannot silently alter what any algorithm computes or traces.
func TestAlgoPins(t *testing.T) {
	pins := map[string]runPin{
		"delta1":             {0x96cb02009f76b121, 29, 848, 5664, 0x99498bdf272d4d9e},
		"linear":             {0x8337e4002cae9623, 15, 4320, 37440, 0x849eeb5117af3320},
		"slow":               {0x59141afff92747a6, 41, 11808, 70848, 0xe4e34a361b40fc9a},
		"luby":               {0x25fd8f9cdfb200e6, 3, 864, 3456, 0x041f7cf48fe278bc},
		"degluby":            {0xd1c01bd0233dd465, 6, 918, 4476, 0x9aa5ee5da21f7fa3},
		"greedy":             {0x466484decd96c186, 0, 0, 0, 0},
		"mis":                {0x65306309db19ef84, 32, 926, 5742, 0},
		"mis-luby":           {0x60805ad1f0dad1e4, 4, 756, 24948, 0x85036545415761fa},
		"oldc":               {0x607e21fc539ac97d, 9, 864, 39072, 0x7efa176dde318762},
		"fk24":               {0x91a0234051a5ff3d, 20, 864, 37560, 0xc4a07824ab5557b3},
		"maus21":             {0xb3b77ea82cd3a625, 0, 0, 0, 0x5e24e96a5464ece8},
		"maus21 -k 2":        {0xd7f159181d915705, 27, 864, 5472, 0x73056e871f6b2268},
		"fk24 -buckets 1000": {0xeea31bb2307a6ea1, 50, 864, 37560, 0xb05125a8b5e7bda4},
		"oldc -kappa 6":      {0x67614c4b08e48c06, 9, 864, 46452, 0x432c4fc19ad6a13b},
		"fk24 -kappa 6":      {0xe8b1ba468b6da79f, 20, 864, 44964, 0x0b4cd2884171e513},
	}
	var missing strings.Builder
	for _, row := range append(append([]string(nil), algos...), knobPins...) {
		algo, knobs, _ := strings.Cut(row, " ")
		trace := filepath.Join(t.TempDir(), "run.jsonl")
		args := append(append([]string(nil), pinArgs...), "-algo", algo)
		args = append(args, strings.Fields(knobs)...)
		if algo != "mis" && algo != "greedy" {
			args = append(args, "-trace", trace)
		}
		out, code := runJSON(t, args...)
		if code != 0 || !out.Valid {
			t.Fatalf("%s: exit %d, valid %v", row, code, out.Valid)
		}
		got := runPin{outputDigest(out), out.Rounds, out.Messages, out.TotalBits, 0}
		if algo != "mis" && algo != "greedy" {
			b, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			got.trace = fnv1a(b)
		}
		want, ok := pins[row]
		if !ok {
			fmt.Fprintf(&missing, "\t%q: {%#016x, %d, %d, %d, %#016x},\n", row, got.digest, got.rounds, got.messages, got.bits, got.trace)
			continue
		}
		if got != want {
			t.Errorf("%s: got {%#016x, %d, %d, %d, %#016x}, pinned {%#016x, %d, %d, %d, %#016x}", row,
				got.digest, got.rounds, got.messages, got.bits, got.trace,
				want.digest, want.rounds, want.messages, want.bits, want.trace)
		}
	}
	if missing.Len() > 0 {
		t.Fatalf("unpinned algorithms:\n%s", missing.String())
	}
}

// gateCombos are the flag combinations whose exit codes TestGatePins pins
// for every algorithm; CKPT and TRACE are replaced by fresh temp paths.
var gateCombos = [][]string{
	{"-chaos", "drop:0.1"},
	{"-chaos", "flip-1pct"},
	{"-chaos", "kill:3"},
	{"-chaos", "kill:3", "-ckpt", "CKPT"},
	{"-ckpt", "CKPT"},
	{"-repair"},
	{"-ckpt", "CKPT", "-repair"},
	{"-trace", "TRACE"},
	{"-trace", "-"},
	{"-chaos", "kill:3", "-ckpt", "CKPT", "-trace", "-"},
}

// TestGatePins pins the exit code of every algorithm under every gated
// flag combination: 0 or 1 where the combination runs, 2 where it is
// refused as a usage error.
func TestGatePins(t *testing.T) {
	pins := map[string][]int{
		"delta1":   {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
		"linear":   {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
		"slow":     {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
		"luby":     {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
		"degluby":  {1, 2, 2, 0, 0, 2, 2, 0, 0, 2},
		"greedy":   {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		"mis":      {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		"mis-luby": {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
		"oldc":     {0, 0, 2, 0, 0, 0, 2, 0, 0, 2},
		"fk24":     {0, 0, 2, 2, 2, 2, 2, 0, 0, 2},
		"maus21":   {2, 2, 2, 2, 2, 2, 2, 0, 0, 2},
	}
	var missing strings.Builder
	for _, algo := range algos {
		got := make([]int, len(gateCombos))
		for i, combo := range gateCombos {
			dir := t.TempDir()
			args := append(append([]string(nil), pinArgs...), "-algo", algo)
			for _, a := range combo {
				switch a {
				case "CKPT":
					a = filepath.Join(dir, "run.ckpt")
				case "TRACE":
					a = filepath.Join(dir, "run.jsonl")
				}
				args = append(args, a)
			}
			got[i] = run(args, io.Discard, io.Discard)
		}
		want, ok := pins[algo]
		if !ok {
			fmt.Fprintf(&missing, "\t%q: %#v,\n", algo, got)
			continue
		}
		for i := range gateCombos {
			if got[i] != want[i] {
				t.Errorf("%s %v: exit %d, pinned %d", algo, gateCombos[i], got[i], want[i])
			}
		}
	}
	if missing.Len() > 0 {
		t.Fatalf("unpinned algorithms:\n%s", missing.String())
	}
}
