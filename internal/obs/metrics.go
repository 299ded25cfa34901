package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous metric. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n as the gauge's current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n exceeds the current value (a running
// maximum, e.g. the largest message seen so far).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets (Prometheus
// convention: bucket i counts observations ≤ Buckets[i], plus an implicit
// +Inf bucket). Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []int64   // len(buckets)+1; last is +Inf
	sum     float64
	count   int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound ≥ v
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"` // upper bounds (+Inf implicit)
	Counts  []int64   `json:"counts"`  // per-bucket counts, last is +Inf
	Sum     float64   `json:"sum"`
	Count   int64     `json:"count"`
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Buckets: append([]float64(nil), h.buckets...),
		Counts:  append([]int64(nil), h.counts...),
		Sum:     h.sum,
		Count:   h.count,
	}
}

// Registry is a named collection of counters, gauges, and histograms.
// Metric constructors are get-or-create, so independent layers can share
// one registry without coordination. The zero Registry is not usable; use
// NewRegistry. A nil *Registry disables metrics: every instrumented call
// site in the repository guards with a nil check.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later calls ignore the
// bounds argument).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{
			buckets: append([]float64(nil), buckets...),
			counts:  make([]int64, len(buckets)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range histograms {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// WriteText renders the registry in the Prometheus text exposition format
// (families sorted by name, histograms as cumulative _bucket/_sum/_count
// series). This is what the -metrics-addr endpoint of ldc-run serves.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		p("# TYPE %s histogram\n", name)
		cum := int64(0)
		for i, bound := range h.Buckets {
			cum += h.Counts[i]
			p("%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
		}
		cum += h.Counts[len(h.Buckets)]
		p("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		p("%s_sum %g\n", name, h.Sum)
		p("%s_count %d\n", name, h.Count)
	}
	return err
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Metric names used across the repository (the catalog is documented in
// docs/OBSERVABILITY.md). Centralizing them here keeps emitters and
// dashboards in sync.
const (
	// MetricRounds counts simulator rounds executed.
	MetricRounds = "ldc_sim_rounds_total"
	// MetricMessages counts messages delivered.
	MetricMessages = "ldc_sim_messages_total"
	// MetricBits counts bits carried on all wires.
	MetricBits = "ldc_sim_bits_total"
	// MetricMaxMessageBits is a running maximum of single-message size.
	MetricMaxMessageBits = "ldc_sim_max_message_bits"
	// MetricRoundMaxBits is a histogram of per-round maximum message size.
	MetricRoundMaxBits = "ldc_sim_round_max_bits"
	// MetricDropped counts wires dropped by the structured fault model.
	MetricDropped = "ldc_faults_dropped_total"
	// MetricCorrupted counts wires corrupted by the structured fault model.
	MetricCorrupted = "ldc_faults_corrupted_total"
	// MetricDecodeFaults counts detected decode failures.
	MetricDecodeFaults = "ldc_faults_decode_total"
	// MetricFamilyCacheHits counts family-cache lookups served from cache.
	MetricFamilyCacheHits = "ldc_family_cache_hits_total"
	// MetricFamilyCacheMisses counts family-cache lookups that derived.
	MetricFamilyCacheMisses = "ldc_family_cache_misses_total"
	// MetricFamilyCacheEntries gauges distinct types held by the cache.
	MetricFamilyCacheEntries = "ldc_family_cache_entries"
	// MetricFamilyArenaBytes gauges bytes reserved by the cache's bump
	// arena (the resident cost of all cached family derivations).
	MetricFamilyArenaBytes = "ldc_family_arena_bytes"
	// MetricServeBatches counts mutation batches applied by the
	// incremental recoloring service.
	MetricServeBatches = "ldc_serve_batches_total"
	// MetricServeMutations counts individual mutations applied.
	MetricServeMutations = "ldc_serve_mutations_total"
	// MetricServeRecolored counts nodes whose color changed during
	// incremental repair (distributed repairs and greedy sweeps alike).
	MetricServeRecolored = "ldc_serve_recolored_total"
	// MetricServeQueries counts color queries answered.
	MetricServeQueries = "ldc_serve_queries_total"
	// MetricServeDirty gauges the candidate-set size of the last batch.
	MetricServeDirty = "ldc_serve_dirty_nodes"
	// MetricServeResidual gauges the violators carried out of the last
	// batch (0 in steady state).
	MetricServeResidual = "ldc_serve_residual_nodes"
	// MetricServeBatchMS is a histogram of per-batch recolor latency in
	// milliseconds.
	MetricServeBatchMS = "ldc_serve_recolor_latency_ms"
	// MetricShardBoundaryMsgs gauges the cross-shard (ghost-boundary) wires
	// routed by a multi-shard engine's current run.
	MetricShardBoundaryMsgs = "ldc_shard_boundary_msgs"
	// MetricShardGhostNodes gauges the ghost nodes a sharded partition
	// replicates: remote endpoints referenced by each shard's adjacency,
	// summed over shards.
	MetricShardGhostNodes = "ldc_shard_ghost_nodes"
	// MetricCkptWrites counts round-boundary checkpoint images written.
	MetricCkptWrites = "ldc_ckpt_writes_total"
	// MetricCkptBytes counts bytes written across all checkpoint images.
	MetricCkptBytes = "ldc_ckpt_bytes_total"
	// MetricCkptLastRound gauges the round recorded by the most recent
	// checkpoint (the round a crashed run would resume from).
	MetricCkptLastRound = "ldc_ckpt_last_round"
	// MetricCkptRestores counts successful checkpoint restores.
	MetricCkptRestores = "ldc_ckpt_restores_total"
	// MetricWALAppends counts mutation batches appended to the serve WAL.
	MetricWALAppends = "ldc_wal_appends_total"
	// MetricWALBytes counts bytes appended to the serve WAL.
	MetricWALBytes = "ldc_wal_bytes_total"
	// MetricWALFsyncs counts fsync calls issued by the serve WAL.
	MetricWALFsyncs = "ldc_wal_fsyncs_total"
	// MetricWALReplayed counts batches replayed from the WAL at recovery.
	MetricWALReplayed = "ldc_wal_replayed_total"
	// MetricServeSnapshots counts durable state snapshots written.
	MetricServeSnapshots = "ldc_serve_snapshots_total"
	// MetricServeDegraded gauges degraded read-only mode (1 while the
	// durable store refuses mutations after a recovery failure).
	MetricServeDegraded = "ldc_serve_degraded"
)

// RoundMaxBitsBuckets are the default histogram bounds for
// MetricRoundMaxBits (powers of two spanning one bit to 64Ki bits).
var RoundMaxBitsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// ServeLatencyBuckets are the default histogram bounds for
// MetricServeBatchMS (sub-millisecond through 10s, roughly ×3 steps).
var ServeLatencyBuckets = []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
