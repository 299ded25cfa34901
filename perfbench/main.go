// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload from a seed: it builds the workload's
// graph and list instance (set-up), runs every colouring family's full
// pipeline (bootstrap → solve → validate), then drives the incremental
// recolouring service with an open-loop churn schedule and a closed-loop
// burst. Every output is validated. The last line of standard output is
// one JSON object with the operation tally and the metrics named in
// BENCHMARK.json: the end-to-end metrics with -trace 0, the per-layer
// metrics of a separate traced run with -trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sim"
)

// workload is one named input set. Everything the benchmark feeds the
// program derives from a workload and the seed.
type workload struct {
	name string
	n, d int // RandomRegular(n, d, seed)
	// The square-sum list instance shared by oldc, fk24 and the server:
	// colour space size, slack κ and the largest per-colour defect.
	space  int
	kappa  float64
	maxDef int
	// rate is the open-loop churn schedule in batches per second. It is
	// fixed, well below the service's closed-loop capacity, and does not
	// adapt to the host.
	rate float64
	// Shares of --seconds for the family pipelines and the open loop; the
	// closed-loop burst gets the rest. The run is split into passes, and
	// every family runs at least once per pass.
	pipeShare, openShare float64
	passes               int
	// serveInSetup counts building the server, with its initial solve,
	// as set-up. Elsewhere the server is built once, outside setup_s.
	serveInSetup bool
}

var workloads = []workload{
	{name: "dense-oldc", n: 1024, d: 128, space: 1 << 15, kappa: 6, maxDef: 3,
		rate: 1000, pipeShare: 0.6, openShare: 0.3, passes: 2},
	{name: "sparse-proper", n: 65536, d: 8, space: 4096, kappa: 5, maxDef: 2,
		rate: 1000, pipeShare: 0.6, openShare: 0.3, passes: 3},
	{name: "serve-churn", n: 16384, d: 8, space: 4096, kappa: 5, maxDef: 2,
		rate: 2000, pipeShare: 0.4, openShare: 0.45, passes: 5, serveInSetup: true},
}

const (
	minDefect     = 1  // smallest per-colour defect of the lists
	mausK         = 2  // maus21 trade-off knob k
	readsPerBatch = 4  // open-loop Color reads between consecutive batches
	setups        = 3  // set-ups per untraced run; setup_s is their median CPU time
	tracedSamples = 3  // untraced-traced pairs per family in the traced run
	chunkBatches  = 50 // closed-loop batches per timed chunk; the median chunk is reported
	floodReps     = 3  // routing-probe repetitions; the median is reported
	// reconcileFrac bounds the gap between a family's traced span total
	// and its untraced wall time. Two back-to-back runs on a shared host
	// differ by up to about 0.2, so the bound is 0.5; a span that is lost
	// or counted twice still breaks it.
	reconcileFrac = 0.5
	// reconcileFloor is the shortest pipeline, in seconds, whose
	// reconciliation is judged.
	reconcileFloor = 0.05
)

// bench is one invocation's state.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	rev     string
	out     io.Writer // human-readable lines, all before the result line
	tally   tally
	// corrupt, when set, damages each family's colouring before it is
	// validated. Only the self-tests set it.
	corrupt func(family string, phi coloring.Assignment)
}

// tally counts operations: every set-up, family run, serve batch and read
// and final-state check. A failed operation is an error, an invalid
// output, or a digest that differs from an earlier repeat.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.notes = append(t.notes, err.Error())
	}
}

// sameDigest records one repeat whose digest must equal the first one.
func (t *tally) sameDigest(what, first, got string) {
	var err error
	if got != first {
		err = fmt.Errorf("%s digest %s differs from first repeat %s", what, got, first)
	}
	t.record(err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// instance is one set-up: the graph, its orientation, the list instance
// and a recolouring server over a private copy of the graph.
type instance struct {
	w                      *workload
	seed                   int64
	g                      *graph.Graph
	o                      *graph.Oriented
	lists                  []coloring.NodeList
	srv                    *serve.Server
	edgeDigest, listDigest string
	// Seconds per set-up step, and the instance builder's allocation.
	build, orient, inst, serveNew, total float64
	totalCPU                             float64 // CPU time of the whole set-up
	instAllocMB                          float64
}

func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// setup builds one instance: the graph, its orientation and the lists,
// and on a workload that serves from the start also the server.
func (b *bench) setup(tr *spanTracer) (in *instance, err error) {
	defer recoverSetup(&err)
	w := b.w
	in = &instance{w: &b.w, seed: b.seed}
	tr.enter("setup")
	step := func(name string, dst *float64, f func()) {
		t0 := time.Now()
		_ = tr.span(name, func() error { f(); return nil }) // f reports through the closure
		*dst = time.Since(t0).Seconds()
	}
	start, cpu0 := time.Now(), cpuSeconds()
	step("graph.build", &in.build, func() { in.g = graph.RandomRegular(w.n, w.d, b.seed) })
	step("graph.orient", &in.orient, func() { in.o = graph.OrientByID(in.g) })
	a0 := allocMB()
	step("coloring.instance", &in.inst, func() {
		in.lists = coloring.SquareSumOrientedRange(in.o, w.space, w.kappa, minDefect, w.maxDef, b.seed).Lists
	})
	in.instAllocMB = allocMB() - a0
	if w.serveInSetup {
		err = b.startServer(in, tr)
	}
	in.total, in.totalCPU = time.Since(start).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return nil, err
	}
	in.edgeDigest, in.listDigest = edgeDigest(in.g), listDigest(in.lists)
	return in, nil
}

// recoverSetup turns a panic of the instance builder, which panics when
// the colour space cannot meet the square-sum target, into a failed
// set-up.
func recoverSetup(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("setup: %v", r)
	}
}

// startServer builds the recolouring server, with its initial solve, over
// a copy of the graph: the server's mutations edit its graph in place.
func (b *bench) startServer(in *instance, tr *spanTracer) (err error) {
	defer recoverSetup(&err)
	w := b.w
	tr.enter("setup")
	t0 := time.Now()
	err = tr.span("serve.new", func() error {
		cp := graph.NewBuilder(in.g.N())
		in.g.ForEachEdge(func(u, v int) { cp.AddEdge(u, v) })
		var err error
		in.srv, err = serve.New(cp.Build(), serve.Config{
			Kappa: w.kappa, MinDefect: minDefect, MaxDefect: w.maxDef, SpaceSize: w.space,
			Seed: b.seed, Tracer: tr.obs(),
		})
		return err
	})
	in.serveNew = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// familyRuns appends to runs one run of f, and more until budget has
// passed, checking that every colouring repeats the first one in runs.
// Failed runs are tallied and left out.
func (b *bench) familyRuns(f family, in *instance, runs []pipeRun, budget time.Duration, tr *spanTracer) []pipeRun {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		// Every sample starts from a collected heap, so whether a GC
		// cycle lands inside it does not depend on the samples before.
		runtime.GC()
		r, err := b.runFamily(f, in, tr)
		if err == nil && len(runs) > 0 && r.digest != runs[0].digest {
			err = fmt.Errorf("%s: colouring digest %s differs from first repeat %s", f.name, r.digest, runs[0].digest)
		}
		b.tally.record(err)
		if err == nil {
			runs = append(runs, r)
		}
	}
	return runs
}

func seconds(runs []pipeRun) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.seconds
	}
	return xs
}

func cpuTimes(runs []pipeRun) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.cpu
	}
	return xs
}

// cpuSeconds is the CPU time the process has used, user and system. On a
// shared host a stolen or contended CPU stretches wall time but not CPU
// time, so the end-to-end compute costs are CPU times; wall times are
// reported per layer.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (b *bench) dur(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// untraced is the measured run: the end-to-end metrics.
func (b *bench) untraced() (metrics, error) {
	m := metrics{}
	runtime.GC()
	var in *instance
	var setupSecs []float64
	var alloc float64
	for i := 0; i < setups; i++ {
		a0 := allocMB()
		next, err := b.setup(nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			alloc += allocMB() - a0
			b.printf("digest edges=%s lists=%s", next.edgeDigest, next.listDigest)
			b.tally.record(nil)
		} else {
			b.tally.sameDigest("edge list", in.edgeDigest, next.edgeDigest)
			b.tally.sameDigest("lists", in.listDigest, next.listDigest)
		}
		b.printf("setup %d cpu_s=%.3f wall_s=%.3f build_s=%.3f orient_s=%.3f instance_s=%.3f serve_new_s=%.3f",
			i, next.totalCPU, next.total, next.build, next.orient, next.inst, next.serveNew)
		setupSecs = append(setupSecs, next.totalCPU)
		in = next
		runtime.GC()
	}
	m.put("setup_s", "s", median(setupSecs))
	if in.srv == nil {
		if err := b.startServer(in, nil); err != nil {
			return nil, err
		}
	}
	b.env(in)

	// The run is split into passes. Each pass runs every family for its
	// slice of time, then an open-loop segment, then closed-loop chunks,
	// so slow spells of a shared host spread over all metrics alike.
	w := b.w
	slice := b.dur(w.pipeShare / float64(w.passes*len(families)))
	openSeg := b.dur(w.openShare / float64(w.passes))
	closedSeg := b.dur((1 - w.pipeShare - w.openShare) / float64(w.passes))
	runs := map[string][]pipeRun{}
	famAlloc := map[string]float64{}
	var open openResult
	var rates []float64
	openRng, closedRng := b.rng(), rand.New(rand.NewSource(^b.seed))
	for p := 0; p < w.passes; p++ {
		for _, f := range families {
			a0 := allocMB()
			n := len(runs[f.name])
			runs[f.name] = b.familyRuns(f, in, runs[f.name], slice, nil)
			if fresh := len(runs[f.name]) - n; fresh > 0 {
				famAlloc[f.name] += (allocMB() - a0) / float64(fresh)
			}
		}
		runtime.GC()
		a0 := allocMB()
		open.merge(openLoop(in.srv, openRng, w.rate, readsPerBatch, openSeg, nil))
		alloc += (allocMB() - a0) / float64(w.passes)
		closed := closedLoop(in.srv, closedRng, closedSeg)
		b.tally.attempted += closed.batches
		b.tally.failed += closed.failed
		rates = append(rates, closed.rates...)
	}

	var rounds, bits, colors float64
	for _, f := range families {
		rs := runs[f.name]
		if len(rs) == 0 {
			continue // every run failed and was tallied; the result says so
		}
		first := rs[0]
		rounds += float64(first.stats.Rounds)
		bits += float64(first.stats.TotalBits)
		colors += float64(coloring.CountColors(first.phi))
		alloc += famAlloc[f.name] / float64(w.passes)
		b.printf("family %s runs=%d cpu_s=%.4f wall_s=%.4f rounds=%d bits=%d colors=%d digest=%s",
			f.name, len(rs), median(cpuTimes(rs)), median(seconds(rs)), first.stats.Rounds,
			first.stats.TotalBits, coloring.CountColors(first.phi), first.digest)
		m.put(f.name+"_cpu_s", "s", median(cpuTimes(rs)))
	}
	m.put("rounds", "count", rounds)
	m.put("message_bits", "bits", bits)
	m.put("colors", "count", colors)

	b.recordOpen(open)
	m.put("batch_p50_ms", "ms", quantile(open.batchMs, 0.5))
	m.put("alloc_mb", "MiB", alloc)

	b.tally.record(checkServeState(in.srv))
	b.printf("serve closed-loop chunks=%d mutations_per_cpu_s=%.0f", len(rates), median(rates))
	m.put("mutations_per_cpu_s", "1/s", median(rates))
	return m, nil
}

func (b *bench) rng() *rand.Rand { return rand.New(rand.NewSource(b.seed)) }

// recordOpen tallies an open-loop window and says whether its latencies
// are usable: a generator that was more than one period late on over 1%
// of operations did not offer the schedule, and a queue that kept growing
// means the rate was above capacity; either makes the latency rows
// meaningless.
func (b *bench) recordOpen(open openResult) {
	b.tally.attempted += open.batches + open.reads
	b.tally.failed += open.failed
	late := quantile(open.lateMs, 0.99)
	usable := late <= open.periodMs && open.backlogMs <= 100
	b.printf("serve open-loop rate=%g/s batches=%d reads=%d generator_late_p99_ms=%.5f raw_batch_p99_ms=%.3f backlog_ms=%.3f usable=%v",
		b.w.rate, open.batches, open.reads, late, open.rawP99Ms, open.backlogMs, usable)
	if !usable {
		b.printf("WARNING: the open-loop generator ran late or fell behind; the serve latency rows of this run are unusable")
	}
}

// traced is the separate traced run: the per-layer metrics.
func (b *bench) traced() (metrics, error) {
	m := metrics{}
	tr := newSpanTracer()
	in, err := b.setup(tr)
	if err == nil && in.srv == nil {
		err = b.startServer(in, tr)
	}
	b.tally.record(err)
	if err != nil {
		return nil, err
	}
	b.env(in)
	m.put("graph.build_s", "s", in.build)
	m.put("graph.orient_s", "s", in.orient)
	m.put("coloring.instance_s", "s", in.inst)
	m.put("coloring.instance_alloc_mb", "MiB", in.instAllocMB)
	m.put("serve.new_s", "s", in.serveNew)

	// Each family runs tracedSamples pairs of one untraced and one traced
	// run. The spans come from the traced runs only. A pair runs back to
	// back, so a slow spell of the host hits both of its sides alike.
	type famTrace struct {
		first            pipeRun
		untraced, traced float64 // median wall times in seconds
		ratio            float64 // median over pairs of span total / untraced wall
	}
	fams := map[string]famTrace{}
	for _, f := range families {
		var plain, withSpans []pipeRun
		var ratios []float64
		for i := 0; i < tracedSamples; i++ {
			np, nt := len(plain), len(withSpans)
			plain = b.familyRuns(f, in, plain, 0, nil)
			from := tr.spanCount()
			withSpans = b.familyRuns(f, in, withSpans, 0, tr)
			if len(plain) > np && len(withSpans) > nt {
				ratios = append(ratios, tr.spanTime(from).Seconds()/plain[np].seconds)
			}
		}
		if len(plain) == 0 || len(withSpans) == 0 {
			continue // every run failed and was tallied; the result says so
		}
		b.tally.sameDigest(f.name+" traced colouring", plain[0].digest, withSpans[0].digest)
		fams[f.name] = famTrace{
			first:    withSpans[0],
			untraced: median(seconds(plain)),
			traced:   median(seconds(withSpans)),
			ratio:    median(ratios),
		}
	}
	tr.enter("serve")
	open := openLoop(in.srv, b.rng(), b.w.rate, readsPerBatch, b.dur(b.w.openShare), tr)
	b.recordOpen(open)
	b.tally.record(checkServeState(in.srv))

	fl, err := floodProbe(in.g, runtime.NumCPU(), floodReps)
	b.tally.record(err)
	if err != nil {
		return nil, err
	}
	m.put("sim.route_wires_per_s", "1/s", fl.simRate)
	m.put("shard.route_wires_per_s", "1/s", fl.shardRate)
	m.put("shard.ghost_nodes", "count", float64(fl.ghostNodes))
	m.put("shard.boundary_edges", "count", float64(fl.boundaryEdges))

	p := tr.analyze()
	perRun := func(scope, name string) float64 {
		return p.self[[2]string{scope, name}].Seconds() / tracedSamples
	}
	// Reconciliation: per family, the traced span total must be within
	// reconcileFrac of the untraced wall time, taken as the median ratio
	// over the pairs. Pipelines shorter than reconcileFloor are reported
	// but not judged: timer and scheduler noise alone moves them by more
	// than the fraction.
	var validate, worst, sumPlain, sumTraced float64
	for _, f := range families {
		ft, ok := fams[f.name]
		if !ok {
			continue
		}
		validate += perRun(f.name, "validate")
		off := math.Abs(ft.ratio - 1)
		b.printf("reconcile %s untraced_s=%.4f traced_s=%.4f spans/untraced=%.3f",
			f.name, ft.untraced, ft.traced, ft.ratio)
		if ft.untraced >= reconcileFloor {
			worst = math.Max(worst, off)
		}
		sumPlain += ft.untraced
		sumTraced += ft.traced
		r := ft.first
		m.put(f.name+".wall_s", "s", ft.untraced)
		m.put(f.name+".rounds", "count", float64(r.stats.Rounds))
		m.put(f.name+".bits", "bits", float64(r.stats.TotalBits))
		m.put(f.name+".max_message_bits", "bits", float64(r.stats.MaxMessageBits))
		m.put("sim.round_ms."+f.name, "ms", median(p.rounds[f.name]))
	}
	var reconcileErr error
	if worst > reconcileFrac {
		reconcileErr = fmt.Errorf("trace: span total off untraced wall time by %.3f > %.2f", worst, reconcileFrac)
	}
	b.tally.record(reconcileErr)
	m.put("coloring.validate_s", "s", validate)
	m.put("trace.overhead_frac", "ratio", sumTraced/sumPlain-1)
	m.put("trace.reconcile_frac", "ratio", worst)

	boot := fams["oldc"].first.boot
	m.put("linial.bootstrap_s", "s", perRun("oldc", "bootstrap"))
	m.put("linial.bootstrap_rounds", "count", float64(boot.Rounds))
	m.put("linial.bootstrap_bits", "bits", float64(boot.TotalBits))

	m.put("oldc.class_selection_s", "s", perRun("oldc", "oldc/class-selection"))
	m.put("oldc.basic_s", "s", perRun("oldc", "oldc/basic"))
	m.put("oldc.two_phase_s", "s", perRun("oldc", "oldc/two-phase"))
	m.put("fk24.buckets_s", "s", perRun("fk24", "fk24/buckets"))
	m.put("maus21.defective_s", "s", perRun("maus21", "maus21/defective"))
	m.put("maus21.intra_s", "s", perRun("maus21", "maus21/intra"))
	m.put("maus21.commit_s", "s", perRun("maus21", "maus21/commit"))
	m.put("congest.bootstrap_s", "s", perRun("delta1", "congest/linial-bootstrap"))
	m.put("congest.arb_driver_s", "s", perRun("delta1", "congest/arb-driver"))
	m.put("arb.stage_s", "s", perRun("delta1", "arb/stage")+perRun("delta1", "arb/fallback"))
	m.put("arb.batch_s", "s", perRun("delta1", "arb/batch"))
	m.put("congest.oldc_s", "s", p.scopeSelf("delta1", "oldc/").Seconds()/tracedSamples)
	m.put("arb.stages", "count", float64(fams["delta1"].first.stages))
	m.put("arb.batches", "count", float64(fams["delta1"].first.batches))

	// The serve phases are totals over the fixed-length open-loop window.
	m.put("serve.repair_s", "s", p.self[[2]string{"serve", "serve/repair"}].Seconds())
	m.put("serve.sweep_s", "s", p.self[[2]string{"serve", "serve/greedy-sweep"}].Seconds())
	m.put("serve.oldc_s", "s", p.scopeSelf("serve", "oldc/").Seconds())
	var dirty, bad, rounds, swept, residual int
	for _, r := range open.reports {
		dirty += r.Dirty
		bad += r.InitialBad
		rounds += r.Rounds
		swept += r.SweepRecolored
		residual = max(residual, len(r.Residual))
	}
	toSweep := 0
	for _, e := range p.phases[[2]string{"serve", "serve/greedy-sweep"}] {
		toSweep += e.attrs["violators"]
	}
	yield := 1.0 // nothing entered repair, so nothing was wasted
	if bad > 0 {
		yield = float64(bad-toSweep) / float64(bad)
	}
	m.put("serve.dirty", "count", float64(dirty))
	m.put("serve.initial_bad", "count", float64(bad))
	m.put("serve.repair_rounds", "count", float64(rounds))
	m.put("serve.sweep_recolored", "count", float64(swept))
	m.put("serve.residual_max", "count", float64(residual))
	m.put("serve.repair_yield", "ratio", yield)
	m.put("serve.generator_late_ms", "ms", quantile(open.lateMs, 0.99))
	m.put("serve.batch_p99_ms", "ms", quantile(open.batchMs, 0.99))
	m.put("serve.read_p99_ms", "ms", quantile(open.readMs, 0.99))
	return m, nil
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// env prints the environment header of the result.
func (b *bench) env(in *instance) {
	hdr := map[string]any{
		"workload":       b.w.name,
		"seed":           b.seed,
		"seconds":        b.seconds,
		"go":             runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"engine_workers": sim.NewEngine(in.g).Workers(),
		"shards":         runtime.NumCPU(),
		"rev":            b.rev,
	}
	js, _ := json.Marshal(hdr) // a map of plain values always marshals
	b.printf("env %s", js)
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload and prints the result;
// it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 8, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rev := fs.String("rev", "unknown", "source revision recorded in the environment header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *secs, rev: *rev, out: stdout}
	res, err := b.measure(*trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}

// measure runs the workload and assembles the result line.
func (b *bench) measure(traced bool) (result, error) {
	run := b.untraced
	if traced {
		run = b.traced
	}
	m, err := run()
	if err != nil {
		return result{}, err
	}
	for _, note := range b.tally.notes {
		b.printf("FAILED %s", note)
	}
	b.printf("ops workload=%s attempted=%d failed=%d", b.w.name, b.tally.attempted, b.tally.failed)
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("metric %s is not a number", name)
		}
	}
	return result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   m,
	}, nil
}
