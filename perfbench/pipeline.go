package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/fk24"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/maus21"
	"repro/internal/oldc"
	"repro/internal/shard"
	"repro/internal/sim"
)

// families lists every colouring family the benchmark runs, in the order
// it runs them. Each family runs the pipeline `ldc-run -algo <name>` runs
// once the graph is built: bootstrap, solve, validate.
var families = []family{
	{"oldc", runOldc},
	{"fk24", runFk24},
	{"delta1", runDelta1},
	{"maus21", runMaus21},
	{"degluby", runDegluby},
	{"degluby_sharded", runDeglubySharded},
}

type family struct {
	name string
	run  func(in *instance, tr *spanTracer) (pipeOut, error)
}

// pipeOut is what a family's bootstrap and solve produce; check validates
// the colouring afterwards, inside the pipeline's timed validate span.
type pipeOut struct {
	phi   coloring.Assignment
	stats sim.Stats // bootstrap and solve together
	boot  sim.Stats // the Linial bootstrap alone (oldc, fk24)
	// stages and batches are the Theorem 1.3 driver's counts (delta1).
	stages, batches int
	check           func(coloring.Assignment) error
}

// bootstrap is the Linial proper colouring that oldc and fk24 start
// from, exactly as ldc-run computes it: O(log* n) rounds from the IDs.
func bootstrap(in *instance, tr *spanTracer) (init []int, m int, st sim.Stats, err error) {
	err = tr.span("bootstrap", func() error {
		eng := sim.NewEngineWith(in.g, sim.Options{Tracer: tr.obs()})
		init, m, st, err = linial.Proper(eng, graph.OrientSymmetric(in.g), linial.IDs(in.g.N()), in.g.N())
		return err
	})
	return init, m, st, err
}

func checkOLDC(in *instance) func(coloring.Assignment) error {
	return func(phi coloring.Assignment) error { return coloring.CheckOLDC(in.o, in.lists, phi) }
}

func checkProper(g *graph.Graph, colors int) func(coloring.Assignment) error {
	return func(phi coloring.Assignment) error { return coloring.CheckProper(g, phi, colors) }
}

func runOldc(in *instance, tr *spanTracer) (pipeOut, error) {
	init, m, boot, err := bootstrap(in, tr)
	if err != nil {
		return pipeOut{}, err
	}
	out := pipeOut{boot: boot, check: checkOLDC(in)}
	err = tr.span("solve", func() error {
		eng := sim.NewEngineWith(in.g, sim.Options{Tracer: tr.obs()})
		oin := oldc.Input{O: in.o, SpaceSize: in.w.space, Lists: in.lists, InitColors: init, M: m}
		var st sim.Stats
		out.phi, st, err = oldc.Solve(eng, oin, oldc.Options{SkipValidate: true})
		out.stats = boot.Add(st)
		return err
	})
	return out, err
}

func runFk24(in *instance, tr *spanTracer) (pipeOut, error) {
	init, m, boot, err := bootstrap(in, tr)
	if err != nil {
		return pipeOut{}, err
	}
	out := pipeOut{boot: boot, check: checkOLDC(in)}
	err = tr.span("solve", func() error {
		eng := sim.NewEngineWith(in.g, sim.Options{Tracer: tr.obs()})
		fin := fk24.Input{O: in.o, SpaceSize: in.w.space, Lists: in.lists, InitColors: init, M: m}
		var st sim.Stats
		out.phi, st, err = fk24.Solve(eng, fin, fk24.Options{SkipValidate: true})
		out.stats = boot.Add(st)
		return err
	})
	return out, err
}

// runDelta1 is Theorem 1.4: (Δ+1)-colouring in CONGEST. Its Linial
// bootstrap runs inside congest.DeltaPlusOne, visible as the
// congest/linial-bootstrap phase.
func runDelta1(in *instance, tr *spanTracer) (pipeOut, error) {
	out := pipeOut{check: checkProper(in.g, in.g.MaxDegree()+1)}
	err := tr.span("solve", func() error {
		res, err := congest.DeltaPlusOne(in.g, congest.Config{Tracer: tr.obs()})
		out.phi, out.stats, out.stages, out.batches = res.Phi, res.Stats, res.Stages, res.Batches
		return err
	})
	return out, err
}

func runMaus21(in *instance, tr *spanTracer) (pipeOut, error) {
	var out pipeOut
	err := tr.span("solve", func() error {
		eng := sim.NewEngineWith(in.g, sim.Options{Tracer: tr.obs()})
		phi, colors, st, err := maus21.Solve(eng, in.g, maus21.Options{K: mausK, SkipValidate: true})
		out.phi, out.stats, out.check = phi, st, checkProper(in.g, colors)
		return err
	})
	return out, err
}

func runDegluby(in *instance, tr *spanTracer) (pipeOut, error) {
	out := pipeOut{check: checkProper(in.g, in.g.MaxDegree()+1)}
	err := tr.span("solve", func() error {
		eng := sim.NewEngineWith(in.g, sim.Options{Tracer: tr.obs()})
		var err error
		out.phi, out.stats, err = baseline.DegreeLuby(eng, in.g, in.seed)
		return err
	})
	return out, err
}

// runDeglubySharded is degluby on the sharded engine with one shard per
// CPU; partitioning the graph is part of the timed solve, as in ldc-run.
func runDeglubySharded(in *instance, tr *spanTracer) (pipeOut, error) {
	out := pipeOut{check: checkProper(in.g, in.g.MaxDegree()+1)}
	err := tr.span("solve", func() error {
		eng := shard.FromGraph(in.g, shard.Options{Shards: runtime.NumCPU(), Tracer: tr.obs()})
		var err error
		out.phi, out.stats, err = baseline.DegreeLuby(eng, in.g, in.seed)
		return err
	})
	return out, err
}

// pipeRun is one timed family pipeline.
type pipeRun struct {
	pipeOut
	seconds float64 // wall time
	cpu     float64 // CPU time of the whole process, user and system
	digest  string
}

// runFamily runs one family pipeline and validates its output. The
// corrupt hook, when set, damages the colouring before validation; the
// self-tests use it to prove that an invalid colouring is caught.
func (b *bench) runFamily(f family, in *instance, tr *spanTracer) (pipeRun, error) {
	tr.enter(f.name)
	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := f.run(in, tr)
	if err != nil {
		return pipeRun{}, fmt.Errorf("%s: %w", f.name, err)
	}
	if b.corrupt != nil {
		b.corrupt(f.name, out.phi)
	}
	err = tr.span("validate", func() error { return out.check(out.phi) })
	secs, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return pipeRun{}, fmt.Errorf("%s: invalid colouring: %w", f.name, err)
	}
	return pipeRun{pipeOut: out, seconds: secs, cpu: cpu, digest: colorDigest(out.phi)}, nil
}
