package sim

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

func encBits(p Payload) int {
	w := bitio.NewWriter()
	p.EncodeBits(w)
	return w.Len()
}

func TestPayloadSizes(t *testing.T) {
	if got := encBits(UintPayload{Value: 5, Width: 7}); got != 7 {
		t.Fatalf("uint payload %d bits", got)
	}
	// Varint 0 → gamma(1) → 1 bit.
	if got := encBits(VarintPayload{Value: 0}); got != 1 {
		t.Fatalf("varint payload %d bits", got)
	}
	if got := encBits(BitsetPayload{Set: []int{1, 3}, Universe: 10}); got != 10 {
		t.Fatalf("bitset payload %d bits", got)
	}
	// ListPayload: varint length + fixed-width entries.
	lp := ListPayload{Values: []int{1, 2, 3}, Width: 4}
	lenBits := encBits(VarintPayload{Value: 3})
	if got := encBits(lp); got != lenBits+3*4 {
		t.Fatalf("list payload %d bits, want %d", got, lenBits+3*4)
	}
	comp := Composite{UintPayload{Value: 1, Width: 2}, VarintPayload{Value: 0}}
	if got := encBits(comp); got != 3 {
		t.Fatalf("composite %d bits", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rounds: 2, Messages: 10, TotalBits: 100, MaxMessageBits: 7, RoundMaxBits: []int{7, 6}}
	b := Stats{Rounds: 3, Messages: 1, TotalBits: 11, MaxMessageBits: 9, RoundMaxBits: []int{9}}
	c := a.Add(b)
	if c.Rounds != 5 || c.Messages != 11 || c.TotalBits != 111 || c.MaxMessageBits != 9 {
		t.Fatalf("%+v", c)
	}
	if len(c.RoundMaxBits) != 3 {
		t.Fatalf("history %v", c.RoundMaxBits)
	}
}

func TestEngineAccessorsAndWorkers(t *testing.T) {
	g := graph.Ring(12)
	e := NewEngineWith(g, Options{Shards: 0}) // clamps to 1
	if e.N() != 12 || e.MaxDegree() != 2 || e.Edges() != 12 || len(e.Neighbors(0)) != 2 {
		t.Fatalf("topology accessors wrong: n=%d Δ=%d m=%d", e.N(), e.MaxDegree(), e.Edges())
	}
	if e.Workers() != 1 {
		t.Fatalf("workers=%d, want 1", e.Workers())
	}
	a := newFlood(12)
	stats, err := e.Run(a, 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds with sequential workers")
	}
	for v := 0; v < 12; v++ {
		if a.min[v] != 0 {
			t.Fatal("sequential execution incorrect")
		}
	}
}

func TestErrBandwidthMessage(t *testing.T) {
	e := &ErrBandwidth{Round: 3, From: 1, To: 2, Bits: 99, Limit: 10}
	want := "sim: round 3 message 1->2 is 99 bits, exceeds bandwidth 10"
	if e.Error() != want {
		t.Fatalf("got %q", e.Error())
	}
}

func TestManyWorkersClamped(t *testing.T) {
	g := graph.Path(3)
	e := NewEngineWith(g, Options{Shards: 1000}) // more shards than nodes
	if e.Workers() != 3 {
		t.Fatalf("workers=%d, want 3 (one shard per node)", e.Workers())
	}
	a := newFlood(3)
	if _, err := e.Run(a, 20); err != nil {
		t.Fatal(err)
	}
	if a.min[2] != 0 {
		t.Fatal("oversubscribed pool produced wrong result")
	}
}
