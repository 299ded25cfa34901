// Package shard keeps the names under which callers built a sharded
// engine before the simulator had a single one: partitioning now lives in
// sim.Engine itself (sim.Options.Shards). Options and FromGraph forward to
// package sim.
package shard

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Options is sim.Options; its Shards field selects the partition.
type Options = sim.Options

// FromGraph returns sim.NewEngineWith(g, opts).
func FromGraph(g *graph.Graph, opts Options) *sim.Engine { return sim.NewEngineWith(g, opts) }
