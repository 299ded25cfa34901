package main

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sim"
)

// floodRounds is the fixed length of the routing probe: every node
// broadcasts on every round, so each round moves 2m wires.
const floodRounds = 10

// minFlood is the benchmark's own routing probe: each node broadcasts the
// smallest ID it has heard so far, for floodRounds rounds. Its compute is
// trivial, so the run time is the engine's route/encode/deliver layer.
type minFlood struct {
	min    []uint64
	next   []uint64
	rounds int
}

func newMinFlood(n int) *minFlood {
	f := &minFlood{min: make([]uint64, n), next: make([]uint64, n)}
	for v := range f.min {
		f.min[v] = uint64(v)
	}
	return f
}

// Outbox implements sim.Algorithm.
func (f *minFlood) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.UintPayload{Value: f.min[v], Width: 32})
}

// Inbox implements sim.Algorithm. Each call touches only node v's slots.
func (f *minFlood) Inbox(v int, in []sim.Received) {
	m := f.min[v]
	for _, r := range in {
		if x := r.Payload.(sim.UintPayload).Value; x < m {
			m = x
		}
	}
	f.next[v] = m
}

// Done implements sim.Algorithm; it runs between rounds.
func (f *minFlood) Done() bool {
	if f.rounds > 0 {
		f.min, f.next = f.next, f.min
	}
	f.rounds++
	return f.rounds > floodRounds
}

// floodRate runs the probe once on r and returns delivered wires per
// second and the largest minimum any node holds at the end.
func floodRate(r sim.Runner, n int) (float64, uint64, error) {
	f := newMinFlood(n)
	start := time.Now()
	st, err := r.Run(f, floodRounds+1)
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, err
	}
	var worst uint64
	for _, m := range f.min {
		if m > worst {
			worst = m
		}
	}
	return float64(st.Messages) / secs, worst, nil
}

// floodResult is the routing-layer probe of one workload graph.
type floodResult struct {
	simRate, shardRate        float64 // median wires per second
	ghostNodes, boundaryEdges int64
}

// floodProbe measures routing throughput of the serial engine and of the
// sharded engine (one shard per CPU) on g, as the median of reps runs.
func floodProbe(g *graph.Graph, shards, reps int) (floodResult, error) {
	var res floodResult
	var simRates, shardRates []float64
	eng := shard.FromGraph(g, shard.Options{Shards: shards})
	res.ghostNodes, res.boundaryEdges = eng.GhostNodes(), eng.BoundaryEdges()
	for i := 0; i < reps; i++ {
		for _, side := range []struct {
			r     sim.Runner
			rates *[]float64
		}{
			{sim.NewEngine(g), &simRates},
			{shard.FromGraph(g, shard.Options{Shards: shards}), &shardRates},
		} {
			rate, worst, err := floodRate(side.r, g.N())
			if err != nil {
				return res, err
			}
			// Within floodRounds rounds the minimum ID 0 reaches every
			// node of a connected graph of smaller diameter.
			if worst != 0 {
				return res, fmt.Errorf("flood: a node still holds minimum %d after %d rounds", worst, floodRounds)
			}
			*side.rates = append(*side.rates, rate)
		}
	}
	res.simRate, res.shardRate = median(simRates), median(shardRates)
	return res, nil
}
