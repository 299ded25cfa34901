package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/coloring"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
)

// MatrixRow is one (family, knob, Δ) cell of the who-wins matrix: a single
// validated solve with its round, message, and wall-clock cost. Rows with
// the same Delta are directly comparable; Knob distinguishes variants
// within a family (fk24 bucket depth, maus21 palette knob).
type MatrixRow struct {
	Family     string  `json:"family"`
	Knob       string  `json:"knob,omitempty"`
	Problem    string  `json:"problem"` // "oldc" or "proper"
	N          int     `json:"n"`
	Delta      int     `json:"delta"`
	Rounds     int     `json:"rounds"`
	Messages   int64   `json:"messages"`
	TotalBits  int64   `json:"total_bits"`
	MaxMsgBits int     `json:"max_message_bits"`
	Colors     int     `json:"colors"`
	NsPerSolve float64 `json:"ns_per_solve"`
	Valid      bool    `json:"valid"`
	Doc        string  `json:"doc,omitempty"` // ldc-verify document, when requested
}

// MatrixReport is the machine-readable BENCH_matrix.json payload (schema
// ldc-matrix-bench/v1): the cross-family comparison grid COMPARISON.md and
// the E14 experiment read their crossover claims from. Every row is a
// validated solve — RunMatrixBench fails if any row's output is invalid —
// and when docs were requested each row names an ldc-verify document that
// independently re-checks it.
type MatrixReport struct {
	Header
	Quick   bool        `json:"quick,omitempty"`
	Deltas  []int       `json:"deltas"`
	Entries []MatrixRow `json:"rows"`
}

// matrixCase is one Δ column of the matrix. Space and κ grow with Δ, so
// the OLDC instances stay solvable under cover.Practical().
type matrixCase struct {
	n     int
	delta int
	space int
	kappa float64
}

func matrixCases(quick bool) []matrixCase {
	if quick {
		return []matrixCase{
			{128, 8, 1 << 12, 5.0},
			{128, 16, 1 << 13, 5.5},
			{96, 32, 1 << 14, 6.0},
		}
	}
	return []matrixCase{
		{512, 8, 1 << 12, 5.0},
		{512, 64, 1 << 14, 6.0},
		{512, 128, 1 << 15, 6.0},
	}
}

// verifyDoc is the ldc-verify input document a matrix row can emit, so CI
// can re-validate every committed row with the standalone checker.
type verifyDoc struct {
	N        int          `json:"n"`
	Edges    [][2]int     `json:"edges"`
	Space    int          `json:"space"`
	Lists    []verifyList `json:"lists,omitempty"`
	Coloring []int        `json:"coloring"`
	Variant  string       `json:"variant"`
}

type verifyList struct {
	Colors  []int `json:"colors"`
	Defects []int `json:"defects"`
}

// matrixEntry is one family variant of the matrix: a family from the
// family table and the knob values it runs with.
type matrixEntry struct {
	family  string
	knob    string
	buckets int
	k       int
}

// matrixFamilies enumerates the contenders: the Theorem 1.1 OLDC solver,
// the Fuchs–Kuhn 2024 iterative framework at two bucket depths, the Maus
// 2021 O(kΔ) trade-off at two knob values, the full Theorem 1.4 CONGEST
// stack (which runs Theorem 1.3's driver over Theorem 1.1 internally), and
// the degree-sequential Luby baseline.
var matrixFamilies = []matrixEntry{
	{family: "oldc"},
	{family: "fk24", knob: "buckets=default"},
	{family: "fk24", knob: "buckets=m", buckets: math.MaxInt}, // clamped to m: fully sequential
	{family: "maus21", knob: "k=2", k: 2},
	{family: "maus21", knob: "k=4", k: 4},
	{family: "delta1"},
	{family: "degluby"},
}

// matrixIters is how many times each cell is solved; the reported
// wall-clock is the fastest iteration, which filters scheduler noise
// without inflating the run the way a fixed time floor would across
// dozens of cells.
func matrixIters(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// RunMatrixBench runs every family variant on every Δ column and returns
// the who-wins matrix. Each cell's output is validated in-process (OLDC
// families against the shared square-sum instance under the by-ID
// orientation, proper families against their palette bound); an invalid
// cell fails the whole run. When docsDir is non-empty, each row also
// writes a self-contained ldc-verify document there and records its
// filename, so the committed matrix stays independently re-checkable.
func RunMatrixBench(quick bool, docsDir string) (MatrixReport, error) {
	rep := MatrixReport{Header: newHeader("ldc-matrix-bench/v1"), Quick: quick}
	iters := matrixIters(quick)
	for _, c := range matrixCases(quick) {
		rep.Deltas = append(rep.Deltas, c.delta)
		g := graph.RandomRegular(c.n, c.delta, 1)
		o := graph.OrientByID(g)
		inst := coloring.SquareSumOriented(o, c.space, c.kappa, 3, 7)
		in := oldc.Input{O: o, SpaceSize: c.space, Lists: inst.Lists, InitColors: linial.IDs(c.n), M: c.n}

		for _, e := range matrixFamilies {
			fam := family.Lookup(e.family)
			r := &family.Run{G: g, In: in, Seed: 1, Kappa: c.kappa, Buckets: e.buckets, K: e.k}
			var (
				res  family.Output
				best time.Duration
			)
			for it := 0; it < iters; it++ {
				start := time.Now()
				o, err := fam.Solve(r)
				el := time.Since(start)
				if err != nil {
					return rep, fmt.Errorf("matrix: %s/%s Δ=%d: %w", e.family, e.knob, c.delta, err)
				}
				if it == 0 || el < best {
					best = el
				}
				res = o
			}
			row := MatrixRow{
				Family:     e.family,
				Knob:       e.knob,
				Problem:    string(fam.Problem),
				N:          c.n,
				Delta:      c.delta,
				Rounds:     res.Stats.Rounds,
				Messages:   res.Stats.Messages,
				TotalBits:  res.Stats.TotalBits,
				MaxMsgBits: res.Stats.MaxMessageBits,
				Colors:     coloring.CountColors(res.Phi),
				NsPerSolve: float64(best.Nanoseconds()),
				Valid:      fam.Check(r, res) == nil,
			}
			if !row.Valid {
				return rep, fmt.Errorf("matrix: %s/%s Δ=%d produced an invalid coloring", e.family, e.knob, c.delta)
			}
			if docsDir != "" {
				name, err := writeMatrixDoc(docsDir, g, c, in, e, fam.Problem, res)
				if err != nil {
					return rep, err
				}
				row.Doc = name
			}
			rep.Entries = append(rep.Entries, row)
		}
	}
	return rep, nil
}

// writeMatrixDoc emits one row's ldc-verify document and returns its file
// name (relative to docsDir).
func writeMatrixDoc(dir string, g *graph.Graph, c matrixCase, in oldc.Input, e matrixEntry, problem family.Problem, res family.Output) (string, error) {
	d := verifyDoc{N: g.N(), Coloring: res.Phi}
	g.ForEachEdge(func(u, v int) { d.Edges = append(d.Edges, [2]int{u, v}) })
	switch problem {
	case family.OLDC:
		d.Space = in.SpaceSize
		d.Variant = "oldc-by-id"
		d.Lists = make([]verifyList, len(in.Lists))
		for v, l := range in.Lists {
			d.Lists[v] = verifyList{Colors: l.Colors, Defects: l.Defect}
		}
	case family.Proper:
		d.Space = res.Palette
		d.Variant = "proper"
	}
	knob := e.knob
	if knob == "" {
		knob = "base"
	}
	name := fmt.Sprintf("row-%s-%s-d%d.json", e.family, sanitizeKnob(knob), c.delta)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(d); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// sanitizeKnob maps a knob label to a filename-safe slug.
func sanitizeKnob(knob string) string {
	out := make([]rune, 0, len(knob))
	for _, r := range knob {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
