package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSuperviseCheckpointed runs DegreeLuby behind a preparation step
// that emits a trace event, killed twice: the final colouring, stats and
// trace bytes must equal an uninterrupted run's. An image then offered to
// a run under another key is refused before preparation starts.
func TestSuperviseCheckpointed(t *testing.T) {
	g := graph.RandomRegular(96, 6, 1)
	dir := t.TempDir()
	var alg *baseline.DegreeLubyAlg
	prepared := 0
	prepare := func(eng *sim.Engine) (sim.Snapshotter, int, sim.Stats, error) {
		prepared++
		obs.EmitPhase(eng.Tracer(), "prepare", nil)
		alg = baseline.NewDegreeLuby(g, 1)
		return alg, baseline.DegreeLubyMaxRounds(g.N()), sim.Stats{}, nil
	}
	// traced runs c with a fresh trace file at path and returns its
	// stats, colouring, restarts and the trace bytes.
	traced := func(path string, c Checkpointed) (sim.Stats, []int, int, []byte) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr := obs.NewJSONL(f)
		c.Trace, c.Tracer = f, tr
		c.NewEngine = func() *sim.Engine { return sim.NewEngineWith(g, sim.Options{Tracer: tr}) }
		c.Prepare = prepare
		st, restarts, _, err := SuperviseCheckpointed(SuperviseOptions{MaxRestarts: 3}, c)
		if err != nil {
			t.Fatal(err)
		}
		tr.End(st.TraceTotals())
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return st, alg.Colors(), restarts, b
	}

	baseStats, baseColors, _, baseTrace := traced(filepath.Join(dir, "base.jsonl"),
		Checkpointed{Path: filepath.Join(dir, "base.ckpt"), Key: "run-a"})
	plan, err := ParsePlan("kill:2+kill:4", 1, g)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "kill.ckpt")
	st, colors, restarts, trace := traced(filepath.Join(dir, "kill.jsonl"),
		Checkpointed{Path: ckpt, Key: "run-a", Plan: plan})
	if restarts != 2 {
		t.Errorf("restarts = %d, want 2", restarts)
	}
	if !reflect.DeepEqual(st, baseStats) || !reflect.DeepEqual(colors, baseColors) {
		t.Errorf("resumed run diverges from the uninterrupted run")
	}
	if string(trace) != string(baseTrace) {
		t.Errorf("resumed trace is not byte-identical (%d vs %d bytes)", len(trace), len(baseTrace))
	}

	prepared = 0
	_, _, _, err = SuperviseCheckpointed(SuperviseOptions{}, Checkpointed{
		Path: ckpt, Key: "run-b", Prepare: prepare,
		NewEngine: func() *sim.Engine { return sim.NewEngine(g) },
	})
	if err == nil || !strings.Contains(err.Error(), `"run-a"`) || !strings.Contains(err.Error(), `"run-b"`) {
		t.Fatalf("foreign key: err = %v, want a refusal naming both keys", err)
	}
	if prepared != 0 {
		t.Errorf("a refused checkpoint still prepared the run %d times", prepared)
	}
}
