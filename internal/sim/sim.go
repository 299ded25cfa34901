// Package sim implements a synchronous message-passing simulator for the
// LOCAL and CONGEST models (Peleg 2000), the execution substrate for every
// distributed algorithm in this repository.
//
// Execution proceeds in synchronous rounds. In each round every node first
// produces its outgoing messages, then the engine routes and delivers
// them, then every node consumes its inbox. The engine measures the exact
// bit size of every message by running its bitio encoding, so CONGEST
// bandwidth claims are checked against real encodings rather than struct
// sizes.
//
// The vertex range is split into S contiguous shards (one by default),
// the V_local/E_ghost decomposition of distributed graph frameworks: each
// shard runs its nodes' callbacks on its own goroutine, routes their
// messages into per-destination-shard queues of wire blocks, and
// counting-sorts its inbound queues into a flat inbox arena. Broadcasts are
// encoded once per sender per round, not once per wire; bit totals still
// count every wire. See docs/SIMULATOR.md for the full concurrency
// contract.
//
// The per-node callbacks of an Algorithm must only touch the state of the
// node they are invoked for (plus read-only shared configuration); with
// more than one shard the engine invokes them concurrently.
package sim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Payload is a message body. EncodeBits must write the full wire encoding;
// the engine uses it for bandwidth accounting. A Payload handed to
// Broadcast is encoded once and delivered to every neighbor, so it must not
// be mutated after being passed to an Outbox.
type Payload interface {
	EncodeBits(w *bitio.Writer)
}

// Received is a delivered message.
type Received struct {
	From    int
	Payload Payload
}

// Algorithm is a distributed algorithm over all nodes of a network.
type Algorithm interface {
	// Outbox is called once per node per round to collect the messages
	// node v sends this round.
	Outbox(v int, out *Outbox)
	// Inbox is called once per node per round with the messages delivered
	// to v, sorted by sender id.
	Inbox(v int, in []Received)
	// Done reports global termination; checked between rounds. It must be
	// safe to call while no Outbox/Inbox call is in flight.
	Done() bool
}

// Quiescent is an optional extension of Algorithm. After any round in which
// no message was delivered anywhere in the network (nothing sent, or every
// message dropped by the fault model), the engine calls Quiesced;
// returning true ends the run successfully, exactly as if Done had
// reported termination. This
// lets flood-style algorithms terminate as soon as the network goes silent
// instead of burning an explicit "quiet round" protocol.
type Quiescent interface {
	Quiesced() bool
}

// Outbox collects one node's outgoing messages for a round.
type Outbox struct {
	node      int
	neighbors []int32
	sends     []send
}

// broadcastTo marks a send entry that fans out to every neighbor of the
// sender. Keeping the single entry in the sends list (rather than a
// separate broadcast list) preserves the delivery order of interleaved
// Broadcast and SendTo calls.
const broadcastTo int32 = -1

type send struct {
	to      int32 // receiver id, or broadcastTo
	payload Payload
}

// Broadcast sends p to every neighbor of the node. The engine encodes p
// once and accounts its size once per wire, so broadcasting is O(1) encode
// work regardless of degree.
func (o *Outbox) Broadcast(p Payload) {
	if len(o.neighbors) == 0 {
		return
	}
	o.sends = append(o.sends, send{to: broadcastTo, payload: p})
}

// SendTo sends p to the specific neighbor u; u must be adjacent to the
// node. The fast path does not check adjacency; set Engine.Validate to make
// the engine verify every targeted send against the graph and fail the run
// with a descriptive error on a violation.
func (o *Outbox) SendTo(u int, p Payload) {
	o.sends = append(o.sends, send{to: int32(u), payload: p})
}

// Stats aggregates execution metrics.
type Stats struct {
	Rounds         int   // rounds executed
	Messages       int64 // total messages delivered
	TotalBits      int64 // total bits on all wires
	MaxMessageBits int   // size of the largest single message
	RoundMaxBits   []int // per-round maximum message size
	// Faults is the per-round fault ledger, populated only while a
	// FaultModel is installed (len == Rounds then, nil otherwise), so
	// fault-free runs keep their exact seed Stats.
	Faults []RoundFaults
}

// RoundFaults is one round's entry in the fault ledger. All fields merge
// with sums across routing shards, so the ledger is bit-identical for
// every shard count.
type RoundFaults struct {
	Dropped      int64 // wires dropped by the fault model
	Corrupted    int64 // wires delivered with flipped payload bits
	DecodeFaults int64 // corrupted payloads the receivers detected and rejected
}

// Add merges another phase's statistics into s and returns the result,
// summing rounds/messages/bits and taking the max of message sizes.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.TotalBits += o.TotalBits
	if o.MaxMessageBits > s.MaxMessageBits {
		s.MaxMessageBits = o.MaxMessageBits
	}
	s.RoundMaxBits = append(s.RoundMaxBits, o.RoundMaxBits...)
	s.Faults = append(s.Faults, o.Faults...)
	return s
}

// TotalFaults sums the ledger over all rounds.
func (s Stats) TotalFaults() RoundFaults {
	var t RoundFaults
	for _, f := range s.Faults {
		t.Dropped += f.Dropped
		t.Corrupted += f.Corrupted
		t.DecodeFaults += f.DecodeFaults
	}
	return t
}

// TraceTotals converts the statistics to the obs end-event totals that a
// trace's per-round events reconcile against (see obs.Reconcile).
func (s Stats) TraceTotals() obs.Totals {
	f := s.TotalFaults()
	return obs.Totals{
		Rounds:       s.Rounds,
		Messages:     s.Messages,
		Bits:         s.TotalBits,
		MaxBits:      s.MaxMessageBits,
		Dropped:      f.Dropped,
		Corrupted:    f.Corrupted,
		DecodeFaults: f.DecodeFaults,
	}
}

// FaultOutcome is a fault model's decision for one wire in one round.
type FaultOutcome uint8

const (
	// FaultNone delivers the message untouched.
	FaultNone FaultOutcome = iota
	// FaultDrop discards the message.
	FaultDrop
	// FaultCorrupt delivers the message with a bit of its encoded payload
	// flipped: the receiver gets a CorruptPayload carrying the damaged
	// bits instead of the original value.
	FaultCorrupt
)

// FaultModel is a structured, composable fault schedule (internal/chaos
// provides the standard implementations: i.i.d. drops, targeted wire
// adversaries, crash and crash-recover node faults, bit flips). Wire is
// consulted exactly once per wire per round from the routing shards, so
// implementations must be safe for concurrent use and must depend only on
// their arguments — that is what makes fault schedules seed-deterministic
// and shard-count independent. The returned salt seeds the choice of
// flipped bit when the outcome is FaultCorrupt (the engine flips bit
// salt mod message length) and is ignored otherwise.
//
// Round numbers restart at 0 for every Engine.Run invocation; multi-phase
// solvers (e.g. oldc.Solve) therefore expose fault schedules to each phase
// with a fresh round clock.
type FaultModel interface {
	Wire(round, from, to int) (FaultOutcome, uint64)
}

// Engine executes algorithms over a fixed communication graph. The vertex
// range is split into S contiguous shards (Options.Shards, default 1);
// each shard owns its vertices' outboxes, routing queues and inbox arena
// and runs on its own goroutine, and shards exchange only the messages
// that cross a shard boundary. Stats, inbox contents and order, fault
// ledgers and traces are bit-identical for every shard count.
type Engine struct {
	// Adjacency: the graph itself when built by NewEngine/NewEngineWith,
	// otherwise the CSR that Ingest streamed (vertex v's sorted neighbors
	// are adj[off[v]:off[v+1]]).
	g        *graph.Graph
	off, adj []int32

	n      int
	chunk  int // ceil(n / S); vertex v belongs to shard v / chunk
	shards []*shard

	// The ghost/boundary census is computed on first use.
	censusDone    bool
	ghostNodes    int64
	boundaryEdges int64

	// Bandwidth, when > 0, makes Run fail if any single message exceeds
	// this many bits (CONGEST assertion mode).
	Bandwidth int
	// CountBits disables encoding-based accounting when false (useful for
	// micro-benchmarks where encoding dominates).
	CountBits bool
	// Validate, when true, makes the engine check every SendTo target
	// against the graph's adjacency before routing and fail the run on a
	// violation. The check runs outside the Outbox fast path, so leaving
	// it off costs nothing per send.
	Validate bool
	// Faults, when non-nil, is the structured fault model consulted once
	// per wire per round (see FaultModel). Installing it activates the
	// per-round fault ledger in Stats.
	Faults FaultModel

	// tracer receives one obs round event per round plus whatever phase
	// events the algorithm layers emit. nil disables tracing entirely: the
	// round loop then takes the exact pre-observability code path.
	tracer obs.Tracer
	// metrics receives the engine's counter/gauge/histogram updates
	// (rounds, messages, bits, fault ledger). nil disables metrics.
	metrics *obs.Registry
	// afterRound runs between rounds after each round's accounting is
	// merged (see RoundHook); nil keeps the loop on the hook-free path.
	afterRound RoundHook

	// decodeFaults counts ReportDecodeFault calls during the current
	// round's Inbox phase; the engine drains it into the ledger.
	decodeFaults atomic.Int64

	// Per-run state, written by the round loop only between phases.
	curAlg    Algorithm
	curRound  int
	observing bool
}

// Runner is the engine under the name the former two-engine interface
// had, kept for callers that still spell it that way.
type Runner = *Engine

// Options bundles optional engine configuration for NewEngineWith and
// Ingest.
type Options struct {
	// Shards is the number of contiguous vertex shards, each run by its
	// own goroutine (0 or 1 = one shard, fully sequential; clamped to the
	// vertex count). Output is identical for every value; more shards
	// trade CPU time for wall time on compute-heavy algorithms.
	Shards      int
	Bandwidth   int  // per-message bit budget (0 = unlimited)
	NoCountBits bool // disable encoding-based bit accounting
	Validate    bool // check SendTo targets against the graph
	// Faults installs a structured fault schedule (see FaultModel and
	// internal/chaos) and activates the Stats.Faults ledger.
	Faults FaultModel
	// Tracer installs a round-level execution tracer (see obs.Tracer and
	// docs/OBSERVABILITY.md). nil disables tracing.
	Tracer obs.Tracer
	// Metrics installs a metrics registry the engine reports into; with
	// more than one shard it also gauges ldc_shard_ghost_nodes and
	// ldc_shard_boundary_msgs. nil disables metrics.
	Metrics *obs.Registry
}

// NewEngine returns a one-shard engine over the communication graph g.
func NewEngine(g *graph.Graph) *Engine { return NewEngineWith(g, Options{}) }

// NewEngineWith returns an engine over g configured by opts. The engine
// reads g's adjacency in place, so construction does not copy or scan the
// edges; g must not change while the engine is in use.
func NewEngineWith(g *graph.Graph, opts Options) *Engine {
	e := newEngine(g.N(), opts)
	e.g = g
	return e
}

// newEngine lays out the shards of an n-vertex engine; the caller
// installs the adjacency.
func newEngine(n int, opts Options) *Engine {
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	if n > 0 && s > n {
		s = n
	}
	chunk := 1
	if n > 0 {
		chunk = (n + s - 1) / s
	}
	e := &Engine{
		n:         n,
		chunk:     chunk,
		Bandwidth: opts.Bandwidth,
		CountBits: !opts.NoCountBits,
		Validate:  opts.Validate,
		Faults:    opts.Faults,
		tracer:    opts.Tracer,
		metrics:   opts.Metrics,
	}
	e.shards = make([]*shard, s)
	for i := range e.shards {
		lo := min(i*chunk, n)
		hi := min(lo+chunk, n)
		e.shards[i] = &shard{e: e, id: i, lo: lo, hi: hi, out: make([][]wireBlock, s)}
	}
	return e
}

// Ingest builds an engine by streaming es twice: once to count degrees
// and once to fill a CSR adjacency, with no global edge list, Builder or
// per-vertex maps. The stream must be restartable (the graph.EdgeStream
// contract).
//
// Ingest validates what a Builder would reject by panic: endpoints outside
// [0, N) fail wrapping graph.ErrVertexRange, self loops wrapping
// graph.ErrSelfLoop, and — unlike Builder, which silently deduplicates —
// an edge emitted twice fails wrapping graph.ErrDuplicateEdge.
func Ingest(es graph.EdgeStream, opts Options) (*Engine, error) {
	n := es.N()
	check := func(u, v int) error {
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("sim: ingest edge {%d,%d} outside [0,%d): %w", u, v, n, graph.ErrVertexRange)
		}
		if u == v {
			return fmt.Errorf("sim: ingest edge {%d,%d}: %w", u, v, graph.ErrSelfLoop)
		}
		return nil
	}
	off := make([]int32, n+1)
	if err := es.ForEachEdge(func(u, v int) error {
		if err := check(u, v); err != nil {
			return err
		}
		off[u+1]++
		off[v+1]++
		return nil
	}); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[n])
	cursor := append([]int32(nil), off[:n]...)
	if err := es.ForEachEdge(func(u, v int) error {
		if err := check(u, v); err != nil {
			return err
		}
		if cursor[u] >= off[u+1] || cursor[v] >= off[v+1] {
			return fmt.Errorf("sim: ingest edge {%d,%d}: stream changed between traversals", u, v)
		}
		adj[cursor[u]] = int32(v)
		cursor[u]++
		adj[cursor[v]] = int32(u)
		cursor[v]++
		return nil
	}); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		a := adj[off[v]:off[v+1]]
		slices.Sort(a)
		for i := 1; i < len(a); i++ {
			if a[i-1] == a[i] {
				return nil, fmt.Errorf("sim: ingest edge {%d,%d}: %w", v, a[i], graph.ErrDuplicateEdge)
			}
		}
	}
	e := newEngine(n, opts)
	e.off, e.adj = off, adj
	return e, nil
}

// N returns the number of vertices (graph.Topology).
func (e *Engine) N() int { return e.n }

// Neighbors returns v's sorted neighbor ids; callers must not modify the
// slice (graph.Topology).
func (e *Engine) Neighbors(v int) []int32 {
	if e.g != nil {
		return e.g.Neighbors(v)
	}
	return e.adj[e.off[v]:e.off[v+1]]
}

// MaxDegree returns Δ of the engine's graph (graph.Topology).
func (e *Engine) MaxDegree() int {
	if e.g != nil {
		return e.g.MaxDegree()
	}
	d := 0
	for v := 0; v < e.n; v++ {
		d = max(d, int(e.off[v+1]-e.off[v]))
	}
	return d
}

// Edges returns the number of undirected edges.
func (e *Engine) Edges() int64 {
	if e.g != nil {
		return int64(e.g.M())
	}
	return int64(len(e.adj) / 2)
}

// Workers returns the number of goroutines a round runs on: the shard
// count S. Benchmark reports record it.
func (e *Engine) Workers() int { return len(e.shards) }

// GhostNodes returns the partition's ghost total: for each shard, the
// number of distinct remote vertices its adjacency references, summed over
// shards — the replication cost a distributed deployment would pay.
func (e *Engine) GhostNodes() int64 {
	e.census()
	return e.ghostNodes
}

// BoundaryEdges returns the number of edges whose endpoints live on
// different shards; every message on such an edge crosses shards.
func (e *Engine) BoundaryEdges() int64 {
	e.census()
	return e.boundaryEdges
}

// census scans the adjacency once for the ghost/boundary counts; with one
// shard both are zero and nothing is scanned.
func (e *Engine) census() {
	if e.censusDone {
		return
	}
	e.censusDone = true
	if len(e.shards) == 1 {
		return
	}
	ghost := make([]uint64, (e.n+63)/64)
	for _, sh := range e.shards {
		clear(ghost)
		for v := sh.lo; v < sh.hi; v++ {
			for _, u := range e.Neighbors(v) {
				if int(u) >= sh.lo && int(u) < sh.hi {
					continue
				}
				if v < int(u) {
					e.boundaryEdges++
				}
				if bit := uint64(1) << (uint(u) & 63); ghost[u>>6]&bit == 0 {
					ghost[u>>6] |= bit
					e.ghostNodes++
				}
			}
		}
	}
}

// SetAfterRound installs (or, with nil, removes) the engine's between-
// rounds hook: checkpoint writers and chaos kill schedules chain through
// it (see RoundHook and ChainHooks).
func (e *Engine) SetAfterRound(h RoundHook) { e.afterRound = h }

// SetTracer installs (or, with nil, removes) the engine's round tracer.
// Multi-phase solvers use it to propagate observability onto the fresh
// engines they create for sub-instances.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// Tracer returns the installed round tracer (nil when tracing is off).
func (e *Engine) Tracer() obs.Tracer { return e.tracer }

// SetMetrics installs (or, with nil, removes) the engine's metrics
// registry.
func (e *Engine) SetMetrics(r *obs.Registry) { e.metrics = r }

// Metrics returns the installed metrics registry (nil when metrics are
// off).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// ReportDecodeFault records one detected decode failure (a corrupted or
// truncated payload a receiver rejected) in the current round's fault
// ledger. It is safe to call from concurrent Inbox callbacks; calls made
// while no structured fault model is installed are dropped.
func (e *Engine) ReportDecodeFault() {
	e.decodeFaults.Add(1)
}

// ErrBandwidth is returned wrapped by Run when a message exceeds the
// configured bandwidth.
type ErrBandwidth struct {
	Round, From, To, Bits, Limit int
}

// Error implements the error interface.
func (e *ErrBandwidth) Error() string {
	return fmt.Sprintf("sim: round %d message %d->%d is %d bits, exceeds bandwidth %d",
		e.Round, e.From, e.To, e.Bits, e.Limit)
}

// --- Common payloads ---

// UintPayload is a fixed-width unsigned integer message.
type UintPayload struct {
	Value uint64
	Width int
}

// EncodeBits implements Payload.
func (p UintPayload) EncodeBits(w *bitio.Writer) { w.WriteUint(p.Value, p.Width) }

// VarintPayload is a self-delimiting integer message.
type VarintPayload struct{ Value uint64 }

// EncodeBits implements Payload.
func (p VarintPayload) EncodeBits(w *bitio.Writer) { w.WriteVarint(p.Value) }

// BitsetPayload is a characteristic-vector set message over a universe.
type BitsetPayload struct {
	Set      []int
	Universe int
}

// EncodeBits implements Payload.
func (p BitsetPayload) EncodeBits(w *bitio.Writer) { w.WriteBitset(p.Set, p.Universe) }

// CorruptPayload is what a receiver sees on a wire the fault model
// corrupted: the exact encoded bits of the original message with one bit
// flipped. Receivers that know their wire format can attempt to decode it
// via Reader (internal/oldc does, surfacing failures as DecodeFaults);
// receivers that do not must treat it as an undecodable message and skip
// it. EncodeBits re-emits the damaged bits verbatim, so the corrupted
// message accounts exactly the same size as the original.
type CorruptPayload struct {
	Bits []byte
	NBit int
}

// EncodeBits implements Payload.
func (p CorruptPayload) EncodeBits(w *bitio.Writer) {
	r := bitio.NewReader(p.Bits, p.NBit)
	for i := 0; i < p.NBit; i++ {
		w.WriteBit(r.ReadBit())
	}
}

// Reader returns a bitio.Reader over the corrupted bits.
func (p CorruptPayload) Reader() *bitio.Reader { return bitio.NewReader(p.Bits, p.NBit) }

// Composite concatenates several payloads into one message.
type Composite []Payload

// EncodeBits implements Payload.
func (c Composite) EncodeBits(w *bitio.Writer) {
	for _, p := range c {
		p.EncodeBits(w)
	}
}
