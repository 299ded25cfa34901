package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/serve"
)

// churnBatch draws one mutation batch against the live graph, with the
// churn mix of ldc-bench -servebench: 1/12 node adds, 1/12 node removals,
// 5/12 edge adds, 5/12 edge removals. Mutations within a batch touch
// disjoint endpoints, so every batch is valid when applied.
func churnBatch(rng *rand.Rand, g *graph.Graph, size int) []serve.Mutation {
	batch := make([]serve.Mutation, 0, size)
	touched := make([]int, 0, 2*size)
	free := func(vs ...int) bool {
		for _, v := range vs {
			for _, t := range touched {
				if t == v {
					return false
				}
			}
		}
		touched = append(touched, vs...)
		return true
	}
	for len(batch) < size {
		switch rng.Intn(12) {
		case 0:
			batch = append(batch, serve.Mutation{Op: serve.OpAddNode})
		case 1:
			v := rng.Intn(g.N())
			if free(v) {
				batch = append(batch, serve.Mutation{Op: serve.OpRemoveNode, U: v})
			}
		case 2, 3, 4, 5, 6:
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && free(u, v) {
				batch = append(batch, serve.Mutation{Op: serve.OpAddEdge, U: u, V: v})
			}
		default:
			u := rng.Intn(g.N())
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				v := int(nbrs[rng.Intn(len(nbrs))])
				if free(u, v) {
					batch = append(batch, serve.Mutation{Op: serve.OpRemoveEdge, U: u, V: v})
				}
			}
		}
	}
	return batch
}

func nextBatch(rng *rand.Rand, s *serve.Server) []serve.Mutation {
	o, _, _ := s.Instance()
	return churnBatch(rng, o.Graph(), 1+rng.Intn(8))
}

// openResult is one open-loop window against the server.
type openResult struct {
	batchMs, readMs []float64 // latency from each operation's due time
	rawP99Ms        float64   // p99 batch latency including generator delay; merge keeps the worst segment
	periodMs        float64   // time between due times
	lateMs          []float64 // delay the generator itself added per op
	backlogMs       float64   // how far behind schedule the last op completed
	batches, reads  int
	failed          int
	reports         []serve.BatchReport
}

// openLoop drives s from one goroutine with a fixed-rate merged schedule:
// tick k is due at k/(rate·(1+reads)) seconds; every (1+reads)-th tick is
// a churn batch, the others are Color reads of random nodes. The number
// of ticks is fixed by rate and duration, so the mutation sequence, and
// hence the final colouring, depends only on the seed.
//
// Latency is measured from each operation's due time, so a slow
// operation also charges every later operation that queued behind it.
// The generator waits for a due time by spinning; when the host pauses it
// there, it issues late, and that delay is the generator's, not the
// server's. So the latencies are those of a first-come-first-served
// queue fed on schedule with the measured service times: an operation
// starts at its due time or when the previous one completes, whichever
// is later. The generator's own delay is reported separately as lateMs,
// and rawP99Ms keeps the p99 that includes it.
func openLoop(s *serve.Server, rng *rand.Rand, rate float64, reads int, dur time.Duration, tr *spanTracer) openResult {
	var res openResult
	period := time.Duration(float64(time.Second) / (rate * float64(1+reads)))
	ticks := int(dur / period)
	res.periodMs = float64(period) / 1e6
	var raw []float64
	start := time.Now()
	var prevDone, queueDone time.Duration
	for k := 0; k < ticks; k++ {
		due := time.Duration(k) * period
		isBatch := k%(1+reads) == 0
		var batch []serve.Mutation
		var v int
		if isBatch {
			batch = nextBatch(rng, s)
		} else {
			v = rng.Intn(s.N())
		}
		at := time.Since(start)
		for at < due {
			// Yield on every pass so a stop-the-world GC never waits for
			// this loop to reach a preemption point.
			runtime.Gosched()
			at = time.Since(start)
		}
		res.lateMs = append(res.lateMs, float64(at-max(due, prevDone))/1e6)
		if isBatch {
			var rep serve.BatchReport
			err := tr.span("batch", func() error {
				var err error
				rep, err = s.Apply(batch)
				return err
			})
			if err != nil {
				res.failed++
			}
			res.reports = append(res.reports, rep)
			res.batches++
		} else {
			if c, err := s.Color(v); err != nil || c < 0 {
				res.failed++
			}
			res.reads++
		}
		prevDone = time.Since(start)
		queueDone = max(due, queueDone) + (prevDone - at)
		lat := float64(queueDone-due) / 1e6
		if isBatch {
			res.batchMs = append(res.batchMs, lat)
			raw = append(raw, float64(prevDone-due)/1e6)
		} else {
			res.readMs = append(res.readMs, lat)
		}
	}
	if ticks > 0 {
		res.backlogMs = float64(queueDone-time.Duration(ticks-1)*period) / 1e6
	}
	res.rawP99Ms = quantile(raw, 0.99)
	return res
}

// merge appends another open-loop segment's samples.
func (r *openResult) merge(o openResult) {
	r.batchMs = append(r.batchMs, o.batchMs...)
	r.readMs = append(r.readMs, o.readMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.backlogMs = max(r.backlogMs, o.backlogMs)
	r.rawP99Ms = max(r.rawP99Ms, o.rawP99Ms)
	r.periodMs = o.periodMs
	r.batches += o.batches
	r.reads += o.reads
	r.failed += o.failed
	r.reports = append(r.reports, o.reports...)
}

// closedResult is a closed-loop burst: batches back to back.
type closedResult struct {
	rates   []float64 // mutations per CPU second inside Apply, per chunk
	batches int
	failed  int
}

// closedLoop applies churn batches back to back for dur, in chunks of
// chunkBatches batches; each chunk's throughput is its mutations over the
// process CPU time spent inside Apply, which a host that steals the CPU
// does not stretch. Generating the next batch is client work and stays
// outside the timed calls.
func closedLoop(s *serve.Server, rng *rand.Rand, dur time.Duration) closedResult {
	var res closedResult
	end := time.Now().Add(dur)
	for len(res.rates) == 0 || time.Now().Before(end) {
		var busy float64
		muts := 0
		for i := 0; i < chunkBatches; i++ {
			batch := nextBatch(rng, s)
			c0 := cpuSeconds()
			rep, err := s.Apply(batch)
			busy += cpuSeconds() - c0
			res.batches++
			if err != nil {
				res.failed++
			}
			muts += rep.Mutations
		}
		res.rates = append(res.rates, float64(muts)/busy)
	}
	return res
}

// checkServeState validates the server's full colouring against its live
// instance.
func checkServeState(s *serve.Server) error {
	o, lists, _ := s.Instance()
	if err := coloring.CheckOLDC(o, lists, s.Snapshot()); err != nil {
		return fmt.Errorf("serve: final state: %w", err)
	}
	return nil
}
