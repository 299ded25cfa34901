package sim

import (
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// referenceRun replicates the seed engine's accounting semantics exactly:
// fully serial execution, one EncodeBits call per wire (no encode-once
// caching), fresh writer per message, per-receiver inbox slices. It is the
// golden model the optimized engine must match bit-for-bit on Stats. A
// non-nil fault drops the wires it selects and keeps the ledger the
// engine keeps under the equivalent dropIf model.
func referenceRun(g *graph.Graph, alg Algorithm, maxRounds int, fault dropIf) (Stats, error) {
	n := g.N()
	var stats Stats
	outboxes := make([]Outbox, n)
	inboxes := make([][]Received, n)
	for round := 0; round < maxRounds; round++ {
		if alg.Done() {
			return stats, nil
		}
		for v := 0; v < n; v++ {
			outboxes[v] = Outbox{node: v, neighbors: g.Neighbors(v), sends: outboxes[v].sends[:0]}
			alg.Outbox(v, &outboxes[v])
		}
		roundMax := 0
		var dropped int64
		for v := 0; v < n; v++ {
			inboxes[v] = inboxes[v][:0]
		}
		for v := 0; v < n; v++ {
			// Expand broadcast sentinels into per-neighbor wires in place,
			// matching the seed Outbox that appended one send per neighbor.
			for _, s := range outboxes[v].sends {
				targets := []int32{s.to}
				if s.to == broadcastTo {
					targets = outboxes[v].neighbors
				}
				for _, to := range targets {
					if fault != nil && fault(round, v, int(to)) {
						dropped++
						continue
					}
					stats.Messages++
					w := bitio.NewWriter()
					s.payload.EncodeBits(w)
					bits := w.Len()
					stats.TotalBits += int64(bits)
					if bits > roundMax {
						roundMax = bits
					}
					if bits > stats.MaxMessageBits {
						stats.MaxMessageBits = bits
					}
					inboxes[to] = append(inboxes[to], Received{From: v, Payload: s.payload})
				}
			}
		}
		stats.RoundMaxBits = append(stats.RoundMaxBits, roundMax)
		if fault != nil {
			stats.Faults = append(stats.Faults, RoundFaults{Dropped: dropped})
		}
		for v := 0; v < n; v++ {
			alg.Inbox(v, inboxes[v])
		}
		stats.Rounds++
	}
	return stats, nil
}

// mixedAlg exercises every messaging shape at once: a broadcast (hits the
// encode-once path), a targeted send to the first neighbor (targeted path),
// and, every third round, a second broadcast (multiple messages from the
// same sender to the same receiver in one round).
type mixedAlg struct {
	n     int
	round int
	seen  []int64
}

func newMixed(n int) *mixedAlg { return &mixedAlg{n: n, seen: make([]int64, n)} }

func (a *mixedAlg) Outbox(v int, out *Outbox) {
	out.Broadcast(VarintPayload{Value: uint64(v + a.round)})
	if len(out.neighbors) > 0 {
		out.SendTo(int(out.neighbors[0]), UintPayload{Value: uint64(v % 16), Width: 4})
	}
	if a.round%3 == 0 {
		out.Broadcast(BitsetPayload{Set: []int{v % 7}, Universe: 7})
	}
}

func (a *mixedAlg) Inbox(v int, in []Received) {
	for _, m := range in {
		a.seen[v] += int64(m.From) + 1
	}
}

func (a *mixedAlg) Done() bool {
	a.round++
	return a.round > 8
}

// goldenPins are digests of the golden workloads' Stats and delivered
// state, recorded on the engine before the router was rewritten; every
// partition of the current engine must reproduce them. The accounting
// pins were recorded with the drops coming from an ad-hoc hook that kept
// no ledger, so they digest the Stats without it.
var goldenPins = map[string]uint64{
	"accounting/nofault":  0xb62d111f1bc24982,
	"accounting/cutnode":  0x85d0d7ad2f1c1112,
	"accounting/parity":   0x14671a50e9795d80,
	"accounting/allfault": 0x2748070dcb4691be,
	"flood":               0xc93b4afb64022744,
	"trace/faults=false":  0x20ac838cf27b12a7,
	"trace/faults=true":   0x1c5d79de102de93f,
}

// shardCounts are the partitions the golden sweeps run; 7 does not divide
// the test graph orders, so the last shard is ragged.
var shardCounts = []int{1, 2, 4, 7}

// TestGoldenAccounting pins the optimized engine's Stats to the seed
// engine's accounting, byte for byte, across workloads, shard counts, and
// fault patterns on a fixed-seed graph.
func TestGoldenAccounting(t *testing.T) {
	g := graph.GNP(150, 0.08, 42)
	faults := map[string]dropIf{
		"nofault":  nil,
		"cutnode":  func(round, from, to int) bool { return from == 3 || to == 3 },
		"parity":   func(round, from, to int) bool { return (round+from+to)%5 == 0 },
		"allfault": func(round, from, to int) bool { return true },
	}
	for name, fault := range faults {
		for _, shards := range shardCounts {
			want, err := referenceRun(g, newMixed(g.N()), 12, fault)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngineWith(g, Options{Shards: shards})
			if fault != nil {
				e.Faults = fault
			}
			aNew := newMixed(g.N())
			got, err := e.Run(aNew, 12)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s shards=%d: stats diverge from seed reference:\n want %+v\n  got %+v",
					name, shards, want, got)
			}
			// The algorithm state must match too: same messages delivered
			// in the same per-inbox order.
			ref := newMixed(g.N())
			if _, err := referenceRun(g, ref, 12, fault); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.seen, aNew.seen) {
				t.Errorf("%s shards=%d: delivered messages diverge", name, shards)
			}
			got.Faults = nil
			checkPin(t, goldenPins, "accounting/"+name, pinDigest(got, aNew.seen))
		}
	}
}

// TestGoldenFlood cross-checks the plain broadcast workload used by the
// benchmarks.
func TestGoldenFlood(t *testing.T) {
	g := graph.RandomRegular(128, 8, 7)
	want, err := referenceRun(g, newFlood(g.N()), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		got, err := NewEngineWith(g, Options{Shards: shards}).Run(newFlood(g.N()), 50)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: stats diverge:\n want %+v\n  got %+v", shards, want, got)
		}
		checkPin(t, goldenPins, "flood", pinDigest(got))
	}
}
