package bench

import (
	"errors"
	"time"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// ChaosBenchEntry is one detect-and-repair run under a built-in fault
// schedule: how much of the network survived the faults, what the repairs
// cost, and whether the final coloring certified.
type ChaosBenchEntry struct {
	Schedule     string  `json:"schedule"`
	N            int     `json:"n"`
	Delta        int     `json:"delta"`
	Rounds       int     `json:"rounds"`
	Dropped      int64   `json:"dropped"`
	Corrupted    int64   `json:"corrupted"`
	DecodeFaults int64   `json:"decode_faults"`
	InitialBad   int     `json:"initial_bad"`
	SurvivalRate float64 `json:"survival_rate"`
	Repairs      int     `json:"repairs"`
	RepairRounds int     `json:"repair_rounds"`
	Residuals    []int   `json:"residuals,omitempty"`
	Fallback     int     `json:"fallback_recolorings"`
	FinalBad     int     `json:"final_bad"`
	Valid        bool    `json:"valid"`
	MsPerRun     float64 `json:"ms_per_run"`
}

// ChaosBenchReport is the machine-readable BENCH_chaos.json payload
// (schema ldc-chaos-bench/v1). It records, per built-in fault schedule,
// the survival and repair figures of oldc.SolveRobust on a fixed Δ=64
// instance.
type ChaosBenchReport struct {
	Header
	Entries []ChaosBenchEntry `json:"benchmarks"`
}

// RunChaosBench runs oldc.SolveRobust under every chaos.Builtin schedule
// on a fixed random regular Δ=64 instance (the robustness
// acceptance scale) and reports survival rate, repair cost, fault-ledger
// totals, and final validity per schedule. Everything except the wall
// clock is deterministic: fixed seeds, fixed schedules, shard-count
// independent stats.
func RunChaosBench() ChaosBenchReport {
	const (
		n     = 512
		delta = 64
	)
	rep := ChaosBenchReport{Header: newHeader("ldc-chaos-bench/v1")}
	g := graph.RandomRegular(n, delta, 1)
	o := graph.OrientByID(g)
	inst := coloring.SquareSumOriented(o, 1<<14, 6.0, 3, 7)
	in := oldc.Input{O: o, SpaceSize: 1 << 14, Lists: inst.Lists, InitColors: linial.IDs(n), M: n}

	for _, sched := range chaos.Builtin(g, 42) {
		eng := sim.NewEngineWith(g, sim.Options{Faults: sched.Model})
		start := time.Now()
		_, rrep, err := oldc.SolveRobust(eng, in, oldc.RobustOptions{})
		elapsed := time.Since(start)

		e := ChaosBenchEntry{
			Schedule:     sched.Name,
			N:            n,
			Delta:        delta,
			Rounds:       rrep.Stats.Rounds,
			InitialBad:   rrep.InitialBad,
			SurvivalRate: rrep.SurvivalRate,
			Repairs:      rrep.Repairs,
			RepairRounds: rrep.RepairRounds,
			Residuals:    rrep.ResidualSizes,
			Fallback:     rrep.FallbackNodes,
			Valid:        err == nil,
			MsPerRun:     float64(elapsed.Microseconds()) / 1e3,
		}
		total := rrep.Stats.TotalFaults()
		e.Dropped = total.Dropped
		e.Corrupted = total.Corrupted
		e.DecodeFaults = total.DecodeFaults
		if err != nil {
			var res *oldc.ErrResidual
			if errors.As(err, &res) {
				e.FinalBad = len(res.Violators)
			} else {
				// Non-residual errors mean the run itself failed; record it
				// as everything-bad so the report can't read as healthy.
				e.FinalBad = n
			}
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep
}
