// Package family is the one table of the algorithm families the command
// line and the who-wins matrix run. A Family names its problem, solves
// it, and declares what it supports: an engine to trace and shard, the
// wire faults it survives, checkpoint/resume, and detect-and-repair.
// Callers gate flags and choose code paths by these declarations, never
// by family name, so adding a family means adding one table entry.
package family

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/fk24"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/maus21"
	"repro/internal/mis"
	"repro/internal/oldc"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Problem is what a family's output must satisfy.
type Problem string

// The problems a family can solve.
const (
	Proper Problem = "proper" // a proper colouring within Output.Palette colours
	List   Problem = "list"   // a proper colouring from the lists in Output.Lists
	OLDC   Problem = "oldc"   // an oriented list defective colouring of Run.In
	MIS    Problem = "mis"    // a maximal independent set
)

// Faults is the wire-fault support a family declares.
type Faults int

// The levels of wire-fault support, each including the one before.
const (
	NoFaults   Faults = iota // no fault schedule at all
	DropsOnly                // dropped and crashed wires, no corrupted payloads
	Corrupting               // bit flips too: every decode path is hardened
)

// Run is one solve's inputs: the graph, the OLDC instance, and the
// command line's seed, knobs and engine settings.
type Run struct {
	G *graph.Graph
	// In is the OLDC instance; only OLDC-problem families read it.
	In      oldc.Input
	Seed    int64
	Kappa   float64 // square-sum slack the OLDC instance was built with
	Buckets int     // fk24 commit buckets (0 = default; ≥ m = fully sequential)
	K       int     // maus21 palette knob (0 = plain Linial)
	// Engine configures every engine the solve creates. A non-nil
	// Engine.Faults also turns off the solvers' own output validation,
	// since a faulty run may legitimately end invalid.
	Engine sim.Options
}

// Output is one solve's result.
type Output struct {
	Phi     coloring.Assignment // the colouring (nil for MIS)
	Set     []bool              // the independent set (MIS only)
	Stats   sim.Stats
	Palette int                // Proper: the palette Phi must fit in
	Lists   *coloring.Instance // List: the lists Phi must respect
}

// Prepared is a resumable solve split at its checkpoint seam: the
// algorithm to run or restore, its round budget, the stats a fresh run
// starts from, and the step that turns the final stats into the output.
type Prepared struct {
	Alg       sim.Snapshotter
	MaxRounds int
	Prior     sim.Stats
	Finish    func(sim.Stats) (Output, error)
}

// Family is one -algo value: its problem, its solve, and its declared
// capabilities.
type Family struct {
	Name    string
	Problem Problem
	// Engine reports that the family runs on a simulator engine, so its
	// rounds can be traced and sharded.
	Engine bool
	Faults Faults
	Solve  func(r *Run) (Output, error)
	// Resumable, when non-nil, prepares the solve on eng for
	// checkpointed, restartable execution (see Supervise).
	Resumable func(eng *sim.Engine, r *Run) (*Prepared, error)
	// Repair, when non-nil, solves with detect-and-repair; its error is a
	// *oldc.ErrResidual when violators remain.
	Repair func(r *Run) (Output, oldc.RobustReport, error)
}

// table lists every family in -algo help order.
var table = []*Family{
	{Name: "delta1", Problem: Proper, Engine: true, Solve: func(r *Run) (Output, error) {
		res, err := congest.DeltaPlusOne(r.G, congest.Config{Shards: r.Engine.Shards, Tracer: r.Engine.Tracer, Metrics: r.Engine.Metrics})
		return r.proper(res.Phi, res.Stats, err)
	}},
	{Name: "linear", Problem: Proper, Engine: true, Solve: func(r *Run) (Output, error) {
		return r.proper(baseline.LinearDeltaPlusOne(r.engine(), r.G))
	}},
	{Name: "slow", Problem: Proper, Engine: true, Solve: func(r *Run) (Output, error) {
		return r.proper(baseline.SlowFold(r.engine(), r.G))
	}},
	{Name: "luby", Problem: Proper, Engine: true, Solve: func(r *Run) (Output, error) {
		return r.proper(baseline.Luby(r.engine(), r.G, r.Seed))
	}},
	{Name: "degluby", Problem: Proper, Engine: true, Faults: DropsOnly,
		// Solve leaves validation to Check, like the checkpointed path,
		// so a run that drops faults into an improper colouring reports
		// it instead of failing with the first monochromatic edge.
		Solve: func(r *Run) (Output, error) {
			alg := baseline.NewDegreeLuby(r.G, r.Seed)
			st, err := r.engine().Run(alg, baseline.DegreeLubyMaxRounds(r.G.N()))
			return r.proper(alg.Colors(), st, err)
		},
		Resumable: func(_ *sim.Engine, r *Run) (*Prepared, error) {
			alg := baseline.NewDegreeLuby(r.G, r.Seed)
			return &Prepared{Alg: alg, MaxRounds: baseline.DegreeLubyMaxRounds(r.G.N()),
				Finish: func(st sim.Stats) (Output, error) { return r.proper(alg.Colors(), st, nil) }}, nil
		},
	},
	{Name: "greedy", Problem: List, Solve: func(r *Run) (Output, error) {
		in := coloring.DegreePlusOne(r.G, 2*r.G.MaxDegree()+2, r.Seed)
		phi, err := seq.Greedy(in)
		return Output{Phi: phi, Lists: in}, err
	}},
	{Name: "mis", Problem: MIS, Solve: func(r *Run) (Output, error) {
		set, st, err := mis.Deterministic(r.G)
		return Output{Set: set, Stats: st}, err
	}},
	{Name: "mis-luby", Problem: MIS, Engine: true, Solve: func(r *Run) (Output, error) {
		set, st, err := mis.Luby(r.engine(), r.G, r.Seed)
		return Output{Set: set, Stats: st}, err
	}},
	{Name: "oldc", Problem: OLDC, Engine: true, Faults: Corrupting,
		Solve: func(r *Run) (Output, error) {
			phi, st, err := oldc.Solve(r.engine(), r.In, oldc.Options{SkipValidate: r.Engine.Faults != nil})
			return Output{Phi: phi, Stats: st}, err
		},
		Resumable: func(eng *sim.Engine, r *Run) (*Prepared, error) {
			prep, err := oldc.PrepareSolve(eng, r.In, oldc.Options{SkipValidate: r.Engine.Faults != nil})
			if err != nil {
				return nil, err
			}
			return &Prepared{Alg: prep.Algorithm(), MaxRounds: prep.MaxRounds(), Prior: prep.PrepStats(),
				Finish: func(st sim.Stats) (Output, error) {
					phi, st, err := prep.Finish(st)
					return Output{Phi: phi, Stats: st}, err
				}}, nil
		},
		Repair: func(r *Run) (Output, oldc.RobustReport, error) {
			phi, rep, err := oldc.SolveRobust(r.engine(), r.In, oldc.RobustOptions{})
			return Output{Phi: phi, Stats: rep.Stats}, rep, err
		},
	},
	{Name: "fk24", Problem: OLDC, Engine: true, Faults: Corrupting, Solve: func(r *Run) (Output, error) {
		in := fk24.Input{O: r.In.O, SpaceSize: r.In.SpaceSize, Lists: r.In.Lists, InitColors: r.In.InitColors, M: r.In.M}
		phi, st, err := fk24.Solve(r.engine(), in, fk24.Options{Buckets: r.Buckets, SkipValidate: r.Engine.Faults != nil})
		return Output{Phi: phi, Stats: st}, err
	}},
	{Name: "maus21", Problem: Proper, Engine: true, Solve: func(r *Run) (Output, error) {
		phi, colors, st, err := maus21.Solve(r.engine(), r.G, maus21.Options{K: r.K})
		return Output{Phi: phi, Stats: st, Palette: colors}, err
	}},
}

// engine returns a fresh engine over r.G configured by r.Engine.
func (r *Run) engine() *sim.Engine { return sim.NewEngineWith(r.G, r.Engine) }

// proper wraps a Δ+1 colouring solver's results.
func (r *Run) proper(phi coloring.Assignment, st sim.Stats, err error) (Output, error) {
	return Output{Phi: phi, Stats: st, Palette: r.G.MaxDegree() + 1}, err
}

// Lookup returns the family named name, or nil.
func Lookup(name string) *Family {
	for _, f := range table {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Names lists, in table order, the families keep accepts (all of them
// when keep is nil).
func Names(keep func(*Family) bool) []string {
	var names []string
	for _, f := range table {
		if keep == nil || keep(f) {
			names = append(names, f.Name)
		}
	}
	return names
}

// Check validates a solve's output against the family's problem.
func (f *Family) Check(r *Run, out Output) error {
	switch f.Problem {
	case List:
		return coloring.CheckProperList(out.Lists, out.Phi)
	case OLDC:
		return coloring.CheckOLDC(r.In.O, r.In.Lists, out.Phi)
	case MIS:
		return mis.Check(r.G, out.Set)
	default:
		return coloring.CheckProper(r.G, out.Phi, out.Palette)
	}
}

// RunKey names the run r of f: the family, a digest of the graph's
// edges, the seed and the knobs. A checkpoint stores it, so a resume
// under different inputs is refused instead of continuing a foreign run.
func (f *Family) RunKey(r *Run) string {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(r.G.N()))
	h.Write(b[:8])
	r.G.ForEachEdge(func(u, v int) {
		binary.LittleEndian.PutUint64(b[:8], uint64(u))
		binary.LittleEndian.PutUint64(b[8:], uint64(v))
		h.Write(b[:])
	})
	return fmt.Sprintf("%s/graph=%016x/seed=%d/kappa=%g/buckets=%d/k=%d", f.Name, h.Sum64(), r.Seed, r.Kappa, r.Buckets, r.K)
}

// Supervise runs f's resumable solve under chaos.SuperviseCheckpointed,
// with a fresh engine per attempt and the run key of r, and finishes the
// last attempt into an Output. c supplies the checkpoint path, cadence,
// kill plan and trace plumbing. It also returns the restarts consumed
// and the total checkpoint read and restore time.
func (f *Family) Supervise(r *Run, opts chaos.SuperviseOptions, c chaos.Checkpointed) (Output, int, time.Duration, error) {
	var prep *Prepared
	c.Key = f.RunKey(r)
	c.NewEngine = r.engine
	c.Prepare = func(eng *sim.Engine) (sim.Snapshotter, int, sim.Stats, error) {
		p, err := f.Resumable(eng, r)
		if err != nil {
			return nil, 0, sim.Stats{}, err
		}
		prep = p
		return p.Alg, p.MaxRounds, p.Prior, nil
	}
	st, restarts, restore, err := chaos.SuperviseCheckpointed(opts, c)
	if err != nil {
		return Output{}, restarts, restore, err
	}
	out, err := prep.Finish(st)
	return out, restarts, restore, err
}

// BootstrapInput builds the OLDC instance the command line solves for r:
// the by-ID orientation of r.G, square-sum lists over 4096 colours with
// slack r.Kappa, and initial colours from Linial's reduction of the node
// IDs. The reduction runs on its own fault-free, untraced engine: fault
// schedules and traces target the solve alone.
func BootstrapInput(r *Run) (oldc.Input, error) {
	g := r.G
	o := graph.OrientByID(g)
	init, m, _, err := linial.Proper(sim.NewEngineWith(g, sim.Options{Shards: r.Engine.Shards}), graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		return oldc.Input{}, err
	}
	inst := coloring.SquareSumOrientedRange(o, 4096, r.Kappa, 1, 3, r.Seed)
	return oldc.Input{O: o, SpaceSize: 4096, Lists: inst.Lists, InitColors: init, M: m}, nil
}
