package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// shardPins are digests of every golden table's output (colourings, full
// Stats including the fault ledger, JSONL trace bytes, first errors),
// recorded on the separate serial and sharded engines this package used
// to hold; every shard count of the merged engine must reproduce them.
var shardPins = map[string]uint64{
	"mixed":                 0x24ec9031c871eaee,
	"chaos-ledger":          0xfd79839cafb6a74d,
	"luby/gnp":              0x500ee4d00dd597d7,
	"luby/pa":               0xb538a191fa50d91e,
	"degluby":               0x816fc379abb79b70,
	"trace":                 0x5add6bb4949c76c6,
	"bandwidth":             0x97c5e7c4ac5b5261,
	"validate":              0xc79d5193a7715499,
	"quiescence":            0x35e38ec94f963103,
	"killresume/fault-free": 0x498d99629195187b,
	"killresume/drop-15pct": 0x5bf9cdd9feb1b524,
}

// shardCounts are the partition sizes every golden table exercises; 7 does
// not divide the test graph orders, so the last shard is ragged.
var shardCounts = []int{1, 2, 4, 7}

// mixedAlg exercises every messaging shape at once — a broadcast, a
// targeted send, and periodically a second broadcast (same sender/receiver
// pair twice in one round). The seen sums depend on delivery content and per-inbox order.
type mixedAlg struct {
	t     graph.Topology
	r     *sim.Engine // for ReportDecodeFault; nil outside fault tests
	round int
	seen  []int64
}

func newMixed(t graph.Topology) *mixedAlg { return &mixedAlg{t: t, seen: make([]int64, t.N())} }

func (a *mixedAlg) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.VarintPayload{Value: uint64(v + a.round)})
	if nbr := a.t.Neighbors(v); len(nbr) > 0 {
		out.SendTo(int(nbr[0]), sim.UintPayload{Value: uint64(v % 16), Width: 4})
	}
	if a.round%3 == 0 {
		out.Broadcast(sim.BitsetPayload{Set: []int{v % 7}, Universe: 7})
	}
}

func (a *mixedAlg) Inbox(v int, in []sim.Received) {
	for i, m := range in {
		// Weight by position so any inbox reordering changes the sums.
		a.seen[v] += int64(m.From+1) * int64(i+1)
		if _, corrupt := m.Payload.(sim.CorruptPayload); corrupt && a.r != nil {
			a.r.ReportDecodeFault()
		}
	}
}

func (a *mixedAlg) Done() bool {
	a.round++
	return a.round > 10
}

// runSharded executes the workload on an engine with S shards.
func runSharded(t *testing.T, g *graph.Graph, s int, opts Options) (sim.Stats, []int64) {
	t.Helper()
	opts.Shards = s
	eng := FromGraph(g, opts)
	alg := newMixed(eng)
	alg.r = eng
	stats, err := eng.Run(alg, 12)
	if err != nil {
		t.Fatal(err)
	}
	return stats, alg.seen
}

// TestGoldenStatsAcrossShards pins the determinism contract: Stats and
// delivered message state are bit-identical for every shard count, and
// equal to what the pre-merge engines produced.
func TestGoldenStatsAcrossShards(t *testing.T) {
	g := graph.GNP(150, 0.08, 42)
	for _, s := range shardCounts {
		got, gotSeen := runSharded(t, g, s, Options{})
		checkPin(t, shardPins, "mixed", pinDigest(got, gotSeen))
	}
}

// TestGoldenFaultedLedger runs a chaos schedule (i.i.d. drops composed with
// bit flips) and requires the full Stats — including the per-round fault
// ledger and receiver-reported decode faults — to merge identically for
// every shard count.
func TestGoldenFaultedLedger(t *testing.T) {
	g := graph.GNP(120, 0.1, 7)
	model := chaos.Compose(chaos.Drop(11, 0.2), chaos.Flip(13, 0.15))
	for _, s := range shardCounts {
		got, gotSeen := runSharded(t, g, s, Options{Faults: model})
		if f := got.TotalFaults(); f.Dropped == 0 || f.Corrupted == 0 || f.DecodeFaults == 0 {
			t.Fatalf("shards=%d: test schedule produced no faults to compare: %+v", s, f)
		}
		checkPin(t, shardPins, "chaos-ledger", pinDigest(got, gotSeen))
	}
}

// TestGoldenLubyColoring requires the full randomized solve — coloring and
// Stats — to be bit-identical for every shard count, on both generator
// families.
func TestGoldenLubyColoring(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp": graph.GNP(200, 0.05, 3),
		"pa":  graph.PreferentialAttachment(200, 3, 9),
	}
	for name, g := range graphs {
		for _, s := range shardCounts {
			eng := FromGraph(g, Options{Shards: s})
			phi, stats, err := baseline.Luby(eng, eng, 17)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, s, err)
			}
			checkPin(t, shardPins, "luby/"+name, pinDigest(phi, stats))
		}
	}
}

// TestGoldenDegreeLuby does the same for the degree+1-palette variant on a
// ragged partition.
func TestGoldenDegreeLuby(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 21)
	for _, s := range shardCounts {
		eng := FromGraph(g, Options{Shards: s})
		phi, stats, err := baseline.DegreeLuby(eng, eng, 5)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		checkPin(t, shardPins, "degluby", pinDigest(phi, stats))
	}
}

// TestGoldenTraces pins byte-identical JSONL round traces across shard
// counts (the tracer runs after the deliver barrier on the round loop, so
// shard scheduling must never leak into trace bytes).
func TestGoldenTraces(t *testing.T) {
	g := graph.GNP(80, 0.1, 5)
	for _, s := range shardCounts {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		eng := FromGraph(g, Options{Shards: s, Tracer: tr})
		if _, err := eng.Run(newMixed(eng), 12); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		checkPin(t, shardPins, "trace", pinDigest(buf.Bytes()))
	}
}

// TestBandwidthParity pins the CONGEST assertion path: the same first
// violating wire and the same partially-accounted Stats on every shard
// count.
func TestBandwidthParity(t *testing.T) {
	g := graph.GNP(60, 0.15, 2)
	for _, s := range shardCounts {
		eng := FromGraph(g, Options{Shards: s, Bandwidth: 3})
		gotStats, gotErr := eng.Run(newMixed(eng), 12)
		if gotErr == nil {
			t.Fatalf("shards=%d: expected a bandwidth violation", s)
		}
		checkPin(t, shardPins, "bandwidth", pinDigest(fmt.Sprint(gotErr), gotStats))
	}
}

// badSender targets a non-neighbor from node 2 in round 1.
type badSender struct{ round int }

func (a *badSender) Outbox(v int, out *sim.Outbox) {
	if a.round == 1 && v == 2 {
		out.SendTo(v, sim.UintPayload{Value: 1, Width: 1}) // self is never adjacent
	}
}
func (a *badSender) Inbox(int, []sim.Received) {}
func (a *badSender) Done() bool                { a.round++; return a.round > 4 }

// TestValidateParity pins the Validate error path: same message, and the
// failing round's routing never contaminates Stats.
func TestValidateParity(t *testing.T) {
	g := graph.Ring(12)
	for _, s := range shardCounts {
		eng := FromGraph(g, Options{Shards: s, Validate: true})
		gotStats, gotErr := eng.Run(&badSender{}, 8)
		if gotErr == nil {
			t.Fatalf("shards=%d: expected a validation error", s)
		}
		checkPin(t, shardPins, "validate", pinDigest(fmt.Sprint(gotErr), gotStats))
	}
}

// floodOnce broadcasts in the first round only, then quiesces: every shard
// count must agree on quiescent termination and its Stats. Done runs
// before each round's Outbox, so round is 1 during the first collection.
type floodOnce struct {
	round int
}

func (a *floodOnce) Outbox(v int, out *sim.Outbox) {
	if a.round == 1 {
		out.Broadcast(sim.UintPayload{Value: uint64(v), Width: 10})
	}
}
func (a *floodOnce) Inbox(int, []sim.Received) {}
func (a *floodOnce) Done() bool                { a.round++; return false }
func (a *floodOnce) Quiesced() bool            { return true }

// TestQuiescenceParity pins early termination on network silence.
func TestQuiescenceParity(t *testing.T) {
	g := graph.Torus(5, 6)
	for _, s := range shardCounts {
		eng := FromGraph(g, Options{Shards: s})
		gotStats, err := eng.Run(&floodOnce{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats.Rounds >= 100 {
			t.Fatalf("shards=%d: quiescence did not trigger", s)
		}
		checkPin(t, shardPins, "quiescence", pinDigest(gotStats))
	}
}

// TestIngestMatchesFromGraph checks streamed ingest against materialized
// construction: identical adjacency, Δ, and partition census.
func TestIngestMatchesFromGraph(t *testing.T) {
	es := graph.StreamGNP(180, 0.06, 31)
	g, err := graph.Materialize(es)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardCounts {
		streamed, err := sim.Ingest(es, Options{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		materialized := FromGraph(g, Options{Shards: s})
		if streamed.N() != g.N() || streamed.MaxDegree() != g.MaxDegree() || streamed.Edges() != int64(g.M()) {
			t.Fatalf("shards=%d: shape mismatch n=%d Δ=%d m=%d", s, streamed.N(), streamed.MaxDegree(), streamed.Edges())
		}
		for v := 0; v < g.N(); v++ {
			if !reflect.DeepEqual(streamed.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("shards=%d: adjacency of %d diverges from graph", s, v)
			}
		}
		if streamed.GhostNodes() != materialized.GhostNodes() || streamed.BoundaryEdges() != materialized.BoundaryEdges() {
			t.Errorf("shards=%d: census diverges: ghosts %d/%d boundary %d/%d", s,
				streamed.GhostNodes(), materialized.GhostNodes(),
				streamed.BoundaryEdges(), materialized.BoundaryEdges())
		}
	}
}

// TestPartitionCensus pins ghost/boundary counts on a graph where they are
// computable by hand: the ring 0-1-...-7-0 split into two shards has
// exactly two crossing edges and four ghost references.
func TestPartitionCensus(t *testing.T) {
	eng := FromGraph(graph.Ring(8), Options{Shards: 2})
	if eng.BoundaryEdges() != 2 {
		t.Errorf("boundary edges = %d, want 2", eng.BoundaryEdges())
	}
	if eng.GhostNodes() != 4 {
		t.Errorf("ghost nodes = %d, want 4", eng.GhostNodes())
	}
	if one := FromGraph(graph.Ring(8), Options{Shards: 1}); one.BoundaryEdges() != 0 || one.GhostNodes() != 0 {
		t.Errorf("unsharded census nonzero: %d/%d", one.BoundaryEdges(), one.GhostNodes())
	}
}

// errStream wraps a fixed edge list as a restartable stream.
type errStream struct {
	n     int
	edges [][2]int
}

func (s errStream) N() int { return s.n }
func (s errStream) ForEachEdge(emit func(u, v int) error) error {
	for _, e := range s.edges {
		if err := emit(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// TestIngestErrors pins the typed-error contract of streamed ingest:
// duplicate edges, self loops, and out-of-range endpoints fail with the
// graph package's sentinels instead of panicking like Builder.
func TestIngestErrors(t *testing.T) {
	cases := []struct {
		name  string
		es    graph.EdgeStream
		cause error
	}{
		{"duplicate", errStream{n: 4, edges: [][2]int{{0, 1}, {1, 2}, {1, 0}}}, graph.ErrDuplicateEdge},
		{"self-loop", errStream{n: 4, edges: [][2]int{{0, 1}, {2, 2}}}, graph.ErrSelfLoop},
		{"out-of-range", errStream{n: 4, edges: [][2]int{{0, 5}}}, graph.ErrVertexRange},
		{"negative", errStream{n: 4, edges: [][2]int{{-1, 2}}}, graph.ErrVertexRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range []int{1, 3} {
				if _, err := sim.Ingest(c.es, Options{Shards: s}); !errors.Is(err, c.cause) {
					t.Errorf("shards=%d: got %v, want %v", s, err, c.cause)
				}
			}
		})
	}
}

// TestShardMetrics checks the gauge catalog entries: ghost nodes published
// when a run starts, boundary messages accumulated over a run, and the
// round counters matching a one-shard run's.
func TestShardMetrics(t *testing.T) {
	g := graph.Ring(16)
	reg := obs.NewRegistry()
	eng := FromGraph(g, Options{Shards: 4, Metrics: reg})
	if _, err := eng.Run(&floodOnce{}, 10); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges[obs.MetricShardGhostNodes]; got != int64(eng.GhostNodes()) {
		t.Errorf("ghost gauge = %d, want %d", got, eng.GhostNodes())
	}
	// Round 0 floods every wire; the 8 boundary wires (2 per cut, 4 cuts)
	// cross shards.
	if got := snap.Gauges[obs.MetricShardBoundaryMsgs]; got != 8 {
		t.Errorf("boundary gauge = %d, want 8", got)
	}
	oneReg := obs.NewRegistry()
	if _, err := sim.NewEngineWith(g, sim.Options{Metrics: oneReg}).Run(&floodOnce{}, 10); err != nil {
		t.Fatal(err)
	}
	want := oneReg.Snapshot()
	for _, name := range []string{obs.MetricRounds, obs.MetricMessages, obs.MetricBits} {
		if snap.Counters[name] != want.Counters[name] {
			t.Errorf("%s = %d, want %d (one shard)", name, snap.Counters[name], want.Counters[name])
		}
	}
	if _, ok := want.Gauges[obs.MetricShardGhostNodes]; ok {
		t.Error("one-shard engine published a shard gauge")
	}
}
