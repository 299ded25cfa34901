package sim_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/sim"
)

// sampleCheckpoint builds a real mid-run checkpoint image by killing a
// DegreeLuby solve after three rounds.
func sampleCheckpoint(t testing.TB) []byte {
	g := graph.GNP(40, 0.15, 3)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	eng := sim.NewEngine(g)
	alg := baseline.NewDegreeLuby(g, 1)
	ckp := &sim.Checkpointer{Path: path, Every: 1}
	kill := errors.New("kill")
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if round >= 2 {
			return kill
		}
		return nil
	}))
	if _, err := eng.Run(alg, 100); !errors.Is(err, kill) {
		t.Fatalf("expected injected kill, got %v", err)
	}
	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck.Encode()
}

// TestCheckpointRoundTrip pins that the full Checkpoint — run key, round
// clock, trace offset, Stats including ledger, and state blob — survives
// encode/decode.
func TestCheckpointRoundTrip(t *testing.T) {
	want := &sim.Checkpoint{
		Key:         "degluby/graph=0123456789abcdef/seed=1",
		Round:       7,
		TraceOffset: 4096,
		Stats: sim.Stats{
			Rounds:         7,
			Messages:       123,
			TotalBits:      4567,
			MaxMessageBits: 99,
			RoundMaxBits:   []int{1, 2, 99, 4, 5, 6, 7},
			Faults:         []sim.RoundFaults{{Dropped: 3, Corrupted: 1, DecodeFaults: 1}, {}},
		},
		State: []byte("opaque"),
	}
	got, err := sim.DecodeCheckpoint(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("roundtrip diverges:\n want %+v\n  got %+v", want, got)
	}

	// Ledger-free stats must come back with nil slices, not empty ones
	// (golden tests compare with DeepEqual against live runs).
	bare := &sim.Checkpoint{Round: 1, TraceOffset: -1, Stats: sim.Stats{Rounds: 1, RoundMaxBits: []int{0}}}
	got, err = sim.DecodeCheckpoint(bare.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Faults != nil {
		t.Errorf("absent ledger decoded non-nil: %+v", got.Stats.Faults)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Errorf("bare roundtrip diverges:\n want %+v\n  got %+v", bare, got)
	}
}

// TestCheckpointCorruption pins the typed-error contract on damaged
// images: flipped bits, truncation, and restores against the wrong graph
// all fail with errors, never panics or silent acceptance.
func TestCheckpointCorruption(t *testing.T) {
	img := sampleCheckpoint(t)
	if _, err := sim.DecodeCheckpoint(img); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	for i := 0; i < len(img); i += 7 {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x10
		if _, err := sim.DecodeCheckpoint(bad); err == nil {
			t.Fatalf("accepted image with byte %d flipped", i)
		} else {
			var ce *ckpt.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d: error %v is not *ckpt.CorruptError", i, err)
			}
		}
	}
	for _, cut := range []int{0, 1, len(img) / 2, len(img) - 1} {
		if _, err := sim.DecodeCheckpoint(img[:cut]); err == nil {
			t.Errorf("accepted image truncated to %d bytes", cut)
		}
	}

	// A valid image restored into an algorithm over the wrong graph must
	// fail typed: the state blob's node count cannot match.
	ck, err := sim.DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	other := graph.Ring(8)
	if err := ck.Restore(baseline.NewDegreeLuby(other, 1)); err == nil {
		t.Error("restore into wrong-sized algorithm succeeded")
	}
}

// TestCheckpointerCadence pins the Every cadence and atomic replacement:
// the file always holds the most recent eligible round.
func TestCheckpointerCadence(t *testing.T) {
	g := graph.Ring(12)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	eng := sim.NewEngine(g)
	alg := baseline.NewDegreeLuby(g, 2)
	ckp := &sim.Checkpointer{Path: path, Every: 3}
	var rounds []int
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if (round+1)%3 == 0 {
			ck, err := sim.ReadCheckpoint(path)
			if err != nil {
				return err
			}
			rounds = append(rounds, ck.Round)
		}
		return nil
	}))
	if _, err := eng.Run(alg, 100); err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no checkpoints observed")
	}
	for i, r := range rounds {
		if r != 3*(i+1) {
			t.Errorf("checkpoint %d has round %d, want %d", i, r, 3*(i+1))
		}
	}
}

// FuzzCheckpointDecode fuzzes the full image pipeline: DecodeCheckpoint
// on arbitrary bytes must return typed errors, never panic, and a
// structurally valid image restored into a live algorithm must likewise
// fail closed on semantic damage.
func FuzzCheckpointDecode(f *testing.F) {
	img := sampleCheckpoint(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(sim.CheckpointMagic))
	f.Add([]byte{})
	g := graph.GNP(40, 0.15, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := sim.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		// Decoded images restore into a fresh algorithm or fail typed;
		// either way, no panic.
		_ = ck.Restore(baseline.NewDegreeLuby(g, 1))
	})
}
