package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ServeBenchEntry is one sustained-churn run of the incremental
// recoloring service: a fixed deterministic mutation sequence applied
// batch by batch, with per-batch recolor latency percentiles and the
// incremental-vs-from-scratch cost comparison.
type ServeBenchEntry struct {
	Delta           int     `json:"delta"`
	N               int     `json:"n"`
	FinalN          int     `json:"final_n"`
	Batches         int     `json:"batches"`
	Mutations       int     `json:"mutations"`
	MutationsPerSec float64 `json:"mutations_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	MaxMs           float64 `json:"max_ms"`
	Recolored       int     `json:"recolored"`
	SweepRecolored  int     `json:"sweep_recolored"`
	RepairRounds    int     `json:"repair_rounds"`
	MaxResidual     int     `json:"max_residual"`
	FinalBad        int     `json:"final_bad"`
	Valid           bool    `json:"valid"`
	// Replay reports whether a second server fed the same batches
	// reproduced the coloring bit-identically (the determinism contract).
	Replay bool `json:"replay_deterministic"`
	// ScratchRounds is what a from-scratch SolveRobust of the final
	// mutated instance costs, for comparison with RepairRounds (the
	// incremental path's total) over the whole run.
	ScratchRounds int  `json:"scratch_rounds"`
	ScratchValid  bool `json:"scratch_valid"`
}

// ServeBenchReport is the machine-readable BENCH_serve.json payload
// (schema ldc-serve-bench/v1): sustained-churn throughput and latency of
// the incremental recoloring service at Δ=8 and Δ=64.
type ServeBenchReport struct {
	Header
	Entries []ServeBenchEntry `json:"benchmarks"`
}

// serveChurnBatch generates one valid mutation batch against the live
// graph. Mutations within a batch touch disjoint endpoints, so validity
// against the pre-batch graph implies validity during application.
func serveChurnBatch(rng *rand.Rand, g *graph.Graph, size int) []serve.Mutation {
	var batch []serve.Mutation
	touched := map[int]bool{}
	free := func(vs ...int) bool {
		for _, v := range vs {
			if touched[v] {
				return false
			}
		}
		for _, v := range vs {
			touched[v] = true
		}
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

// RunServeBench drives the incremental recoloring service under a
// sustained deterministic churn load at Δ=8 and Δ=64: it measures
// mutations/sec and per-batch recolor latency percentiles, verifies the
// coloring after the run, replays the identical mutation sequence on a
// fresh server to check the determinism contract, and solves the final
// mutated instance from scratch for the cost comparison. Everything
// except the wall clock is deterministic.
func RunServeBench() (ServeBenchReport, error) {
	rep := ServeBenchReport{Header: newHeader("ldc-serve-bench/v1")}
	cases := []struct {
		delta, n, batches int
	}{
		{8, 512, 200},
		{64, 256, 60},
	}
	for _, tc := range cases {
		g := graph.RandomRegular(tc.n, tc.delta, 1)
		cfg := serve.Config{Seed: 7}
		s, err := serve.New(g, cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: serve Δ=%d: initial solve: %w", tc.delta, err)
		}

		e := ServeBenchEntry{Delta: tc.delta, N: tc.n, Batches: tc.batches}
		rng := rand.New(rand.NewSource(int64(tc.delta)))
		script := make([][]serve.Mutation, 0, tc.batches)
		latencies := make([]float64, 0, tc.batches)
		var total time.Duration
		for b := 0; b < tc.batches; b++ {
			o, _, _ := s.Instance()
			batch := serveChurnBatch(rng, o.Graph(), 1+rng.Intn(8))
			script = append(script, batch)
			start := time.Now()
			brep, err := s.Apply(batch)
			elapsed := time.Since(start)
			if err != nil {
				return rep, fmt.Errorf("bench: serve Δ=%d batch %d: %w", tc.delta, b, err)
			}
			total += elapsed
			latencies = append(latencies, float64(elapsed.Microseconds())/1e3)
			e.Mutations += brep.Mutations
			e.Recolored += brep.Recolored
			e.SweepRecolored += brep.SweepRecolored
			e.RepairRounds += brep.Rounds
			if len(brep.Residual) > e.MaxResidual {
				e.MaxResidual = len(brep.Residual)
			}
		}
		e.FinalN = s.N()
		if total > 0 {
			e.MutationsPerSec = float64(e.Mutations) / total.Seconds()
		}
		sort.Float64s(latencies)
		e.P50Ms = latencies[len(latencies)/2]
		e.P99Ms = latencies[len(latencies)*99/100]
		e.MaxMs = latencies[len(latencies)-1]

		o, lists, _ := s.Instance()
		e.FinalBad = len(coloring.OLDCViolators(o, lists, s.Snapshot()))
		e.Valid = e.FinalBad == 0

		// Determinism: replay the identical script on a fresh server.
		s2, err := serve.New(graph.RandomRegular(tc.n, tc.delta, 1), cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: serve Δ=%d replay: %w", tc.delta, err)
		}
		e.Replay = true
		for b, batch := range script {
			if _, err := s2.Apply(batch); err != nil {
				return rep, fmt.Errorf("bench: serve Δ=%d replay batch %d: %w", tc.delta, b, err)
			}
		}
		if !reflect.DeepEqual(s.Snapshot(), s2.Snapshot()) {
			e.Replay = false
		}

		// From-scratch baseline on the final mutated instance.
		in := oldc.Input{O: o, SpaceSize: 4096, Lists: lists, InitColors: linial.IDs(o.N()), M: o.N()}
		phi, srep, err := oldc.SolveRobust(sim.NewEngine(o.Graph()), in, oldc.RobustOptions{})
		e.ScratchRounds = srep.Stats.Rounds
		e.ScratchValid = err == nil && coloring.CheckOLDC(o, lists, phi) == nil

		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}
