package shard

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// engineFor returns a constructor of S-shard engines over g.
func engineFor(g *graph.Graph, s int) func() *sim.Engine {
	return func() *sim.Engine { return FromGraph(g, Options{Shards: s}) }
}

// ckptRun is one complete DegreeLuby execution's observable output.
type ckptRun struct {
	phi   coloring.Assignment
	stats sim.Stats
	trace []byte
}

// runUninterrupted runs DegreeLuby to completion with a trace and no
// hooks: the reference output every kill/resume execution must reproduce
// byte for byte.
func runUninterrupted(t *testing.T, mk func() *sim.Engine, g *graph.Graph, faults sim.FaultModel, seed int64) ckptRun {
	t.Helper()
	eng := mk()
	eng.Faults = faults
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	eng.SetTracer(tr)
	alg := baseline.NewDegreeLuby(g, seed)
	stats, err := eng.RunFrom(alg, 0, baseline.DegreeLubyMaxRounds(g.N()), sim.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return ckptRun{phi: alg.Colors(), stats: stats, trace: buf.Bytes()}
}

// errInjectedKill simulates process death at a round boundary.
var errInjectedKill = errors.New("injected kill")

// runKilled executes with a checkpoint hook, aborts at killRound, then
// resumes from the image exactly as cmd/ldc-run's supervisor does:
// truncate the trace to the checkpoint boundary, rebuild the algorithm
// from its constructor inputs, restore, and continue on the absolute
// round clock with the checkpoint's Stats as prior.
func runKilled(t *testing.T, mk func() *sim.Engine, g *graph.Graph, faults sim.FaultModel, seed int64, killRound, every int) ckptRun {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	maxRounds := baseline.DegreeLubyMaxRounds(g.N())

	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	eng := mk()
	eng.Faults = faults
	eng.SetTracer(tr)
	alg := baseline.NewDegreeLuby(g, seed)
	ckp := &sim.Checkpointer{Path: path, Every: every, TraceSync: func() (int64, error) {
		if err := tr.Flush(); err != nil {
			return 0, err
		}
		return int64(buf.Len()), nil
	}}
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if round == killRound {
			return errInjectedKill
		}
		return nil
	}))
	stats, err := eng.RunFrom(alg, 0, maxRounds, sim.Stats{})
	if err == nil {
		// The run terminated before the kill round; nothing to resume.
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return ckptRun{phi: alg.Colors(), stats: stats, trace: buf.Bytes()}
	}
	if !errors.Is(err, errInjectedKill) {
		t.Fatalf("killed run failed with %v, want injected kill", err)
	}

	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if ck.Round < 1 || ck.Round > killRound+1 {
		t.Fatalf("checkpoint round %d outside (0, %d]", ck.Round, killRound+1)
	}
	// Supervisor trace contract: drop the rounds the resumed run will
	// re-execute, then append.
	buf.Truncate(int(ck.TraceOffset))
	tr2 := obs.NewJSONL(&buf)

	eng2 := mk()
	eng2.Faults = faults
	eng2.SetTracer(tr2)
	alg2 := baseline.NewDegreeLuby(g, seed)
	if err := ck.Restore(alg2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	stats, err = eng2.RunFrom(alg2, ck.Round, maxRounds, ck.Stats)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := tr2.Flush(); err != nil {
		t.Fatal(err)
	}
	return ckptRun{phi: alg2.Colors(), stats: stats, trace: buf.Bytes()}
}

// TestGoldenKillResume pins the tentpole recovery contract: a DegreeLuby
// solve killed at an arbitrary round boundary and resumed from its
// checkpoint produces a coloring, Stats, and JSONL trace byte-identical
// to a run that never stopped — at S∈{1,2,4,7} shards, several kill
// rounds and checkpoint cadences, fault-free and under a chaos drop
// schedule.
func TestGoldenKillResume(t *testing.T) {
	g := graph.PreferentialAttachment(220, 3, 21)
	const seed = 5
	schedules := map[string]sim.FaultModel{
		"fault-free": nil,
		"drop-15pct": chaos.Drop(11, 0.15),
	}
	for _, s := range shardCounts {
		mk := engineFor(g, s)
		for schedName, faults := range schedules {
			want := runUninterrupted(t, mk, g, faults, seed)
			checkPin(t, shardPins, "killresume/"+schedName, pinDigest(want.phi, want.stats, want.trace))
			// Dropped announcements can legitimately break properness; the
			// golden contract under faults is bit-identity, not validity.
			if faults == nil {
				if err := coloring.CheckProperOn(g, want.phi, g.MaxDegree()+1); err != nil {
					t.Fatalf("shards=%d/%s reference coloring invalid: %v", s, schedName, err)
				}
			}
			for _, kill := range []int{1, 2, 5} {
				for _, every := range []int{1, 2} {
					got := runKilled(t, mk, g, faults, seed, kill, every)
					tag := fmt.Sprintf("shards=%d/%s", s, schedName)
					checkPin(t, shardPins, "killresume/"+schedName, pinDigest(got.phi, got.stats, got.trace))
					if !reflect.DeepEqual(want.phi, got.phi) {
						t.Errorf("%s kill=%d every=%d: coloring diverges after resume", tag, kill, every)
					}
					if !reflect.DeepEqual(want.stats, got.stats) {
						t.Errorf("%s kill=%d every=%d: stats diverge:\n want %+v\n  got %+v", tag, kill, every, want.stats, got.stats)
					}
					if !bytes.Equal(want.trace, got.trace) {
						t.Errorf("%s kill=%d every=%d: trace bytes diverge", tag, kill, every)
					}
				}
			}
		}
	}
}

// TestKillResumeAcrossEngines pins that a checkpoint written on one shard
// count resumes on another: the image carries only algorithm state and
// the round clock, so a solve killed on one shard may finish on 4 shards
// with identical output.
func TestKillResumeAcrossEngines(t *testing.T) {
	g := graph.GNP(150, 0.06, 9)
	const seed, kill = 7, 3
	want := runUninterrupted(t, engineFor(g, 1), g, nil, seed)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	eng := sim.NewEngine(g)
	alg := baseline.NewDegreeLuby(g, seed)
	ckp := &sim.Checkpointer{Path: path, Every: 1}
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if round == kill {
			return errInjectedKill
		}
		return nil
	}))
	if _, err := eng.RunFrom(alg, 0, baseline.DegreeLubyMaxRounds(g.N()), sim.Stats{}); !errors.Is(err, errInjectedKill) {
		t.Fatalf("want injected kill, got %v", err)
	}
	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := FromGraph(g, Options{Shards: 4})
	alg2 := baseline.NewDegreeLuby(g, seed)
	if err := ck.Restore(alg2); err != nil {
		t.Fatal(err)
	}
	stats, err := eng2.RunFrom(alg2, ck.Round, baseline.DegreeLubyMaxRounds(g.N()), ck.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.phi, alg2.Colors()) || !reflect.DeepEqual(want.stats, stats) {
		t.Error("one-shard checkpoint resumed on 4 shards diverges from uninterrupted one-shard run")
	}
}
