package sim

import (
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// CheckpointMagic tags the engine round-checkpoint image format. The
// format is documented in docs/RECOVERY.md; bump the suffix on any
// incompatible layout change.
const CheckpointMagic = "ldc-ckpt/v2"

// Snapshotter is an Algorithm whose complete inter-round state can be
// serialized and restored, which is what makes a run resumable from a
// round-boundary checkpoint. The engine's round structure guarantees
// every message is delivered within the round it was sent, so a round
// boundary has no in-flight wire state: the algorithm state plus the
// round counter and Stats is the entire execution.
//
// RestoreState is called on a freshly constructed instance built from the
// same inputs (graph, seed, spec) as the snapshotted one; it must either
// restore the exact state or return a typed error (never panic), even on
// adversarial input — checkpoint images cross a filesystem and are
// fuzzed.
type Snapshotter interface {
	Algorithm
	// SnapshotState appends the algorithm's complete inter-round state to
	// the encoder.
	SnapshotState(e *ckpt.Encoder)
	// RestoreState reconstructs the state serialized by SnapshotState.
	RestoreState(d *ckpt.Decoder) error
}

// RoundHook runs on the engine's round loop after round `round` has fully
// executed and been merged into stats. Returning a non-nil error aborts
// the run, which is how checkpoint write failures and injected process
// kills (chaos.Plan) surface. The hook runs single-threaded between
// rounds, so it may read algorithm state safely.
type RoundHook func(round int, stats *Stats) error

// ChainHooks composes round hooks: each non-nil hook runs in order and
// the first error stops the chain. A checkpoint hook chained before a
// kill hook therefore persists the very round the kill interrupts.
func ChainHooks(hooks ...RoundHook) RoundHook {
	live := hooks[:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	chained := append([]RoundHook(nil), live...)
	return func(round int, stats *Stats) error {
		for _, h := range chained {
			if err := h(round, stats); err != nil {
				return err
			}
		}
		return nil
	}
}

// Checkpoint is one ldc-ckpt/v2 image: everything needed to continue a
// run from a round boundary bit-identically to never having stopped.
type Checkpoint struct {
	// Key names the run the image belongs to (algorithm, graph, seed and
	// knobs). A supervisor refuses to resume a run under another key,
	// since restoring a foreign state blob can decode cleanly and still
	// continue a different run.
	Key string
	// Round is the number of rounds fully executed; RunFrom resumes here.
	Round int
	// TraceOffset is the byte length of the JSONL trace at the boundary,
	// or -1 when the run is untraced. A supervisor truncates the trace
	// file to this offset before resuming so replayed rounds are not
	// traced twice and the final trace is byte-identical to an
	// uninterrupted run's.
	TraceOffset int64
	// Stats is the execution ledger up to Round, passed to RunFrom as the
	// prior so the final Stats match an uninterrupted run exactly.
	Stats Stats
	// State is the opaque Snapshotter blob (decoded by Restore).
	State []byte
}

// EncodeStats appends a Stats value to the encoder, preserving the
// nil-versus-empty distinction of the optional slices so decoded stats
// DeepEqual the originals (golden kill/resume tests depend on it). Shared
// by engine checkpoints and the serve state snapshot.
func EncodeStats(e *ckpt.Encoder, s *Stats) {
	e.Int(s.Rounds)
	e.Int64(s.Messages)
	e.Int64(s.TotalBits)
	e.Int(s.MaxMessageBits)
	e.Bool(s.RoundMaxBits != nil)
	e.Ints(s.RoundMaxBits)
	e.Bool(s.Faults != nil)
	e.Uvarint(uint64(len(s.Faults)))
	for _, f := range s.Faults {
		e.Int64(f.Dropped)
		e.Int64(f.Corrupted)
		e.Int64(f.DecodeFaults)
	}
}

// DecodeStats reads a Stats value serialized by EncodeStats. Failures are
// typed *ckpt.CorruptError; lengths are clamped before allocation.
func DecodeStats(d *ckpt.Decoder) (Stats, error) {
	var s Stats
	s.Rounds = d.Int()
	s.Messages = d.Int64()
	s.TotalBits = d.Int64()
	s.MaxMessageBits = d.Int()
	hasRMB := d.Bool()
	rmb := d.Ints()
	if hasRMB {
		s.RoundMaxBits = rmb
	}
	hasLedger := d.Bool()
	nf := d.Uvarint()
	if nf > uint64(d.Remaining()) { // ≥1 byte per entry: clamp before alloc
		return s, corruptf(d.Remaining(), "fault ledger length %d exceeds remaining bytes", nf)
	}
	faults := make([]RoundFaults, nf)
	for i := range faults {
		faults[i] = RoundFaults{Dropped: d.Int64(), Corrupted: d.Int64(), DecodeFaults: d.Int64()}
	}
	if hasLedger {
		s.Faults = faults
	} else if nf > 0 {
		return s, corruptf(0, "fault ledger marked absent but has %d entries", nf)
	}
	if err := d.Err(); err != nil {
		return s, err
	}
	if s.Rounds < 0 {
		return s, corruptf(0, "negative round count")
	}
	return s, nil
}

// Encode seals the checkpoint into a framed ldc-ckpt/v2 image.
func (c *Checkpoint) Encode() []byte {
	e := ckpt.NewEncoder(CheckpointMagic)
	e.Bytes([]byte(c.Key))
	e.Int(c.Round)
	e.Int64(c.TraceOffset)
	EncodeStats(e, &c.Stats)
	e.Bytes(c.State)
	return e.Finish()
}

// DecodeCheckpoint parses and validates a framed ldc-ckpt/v2 image. All
// failures are typed *ckpt.CorruptError; arbitrary bytes never panic
// (pinned by FuzzCheckpointDecode).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	d, err := ckpt.NewDecoder(data, CheckpointMagic)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	c.Key = string(d.Bytes())
	c.Round = d.Int()
	c.TraceOffset = d.Int64()
	c.Stats, err = DecodeStats(d)
	if err != nil {
		return nil, err
	}
	c.State = append([]byte(nil), d.Bytes()...)
	if err := d.Done(); err != nil {
		return nil, err
	}
	if c.Round < 0 || c.Stats.Rounds < 0 || c.TraceOffset < -1 {
		return nil, corruptf(0, "negative round or trace offset")
	}
	return c, nil
}

// corruptf builds a typed checkpoint corruption error.
func corruptf(offset int, format string, args ...any) error {
	return &ckpt.CorruptError{Magic: CheckpointMagic, Offset: offset, Reason: fmt.Sprintf(format, args...)}
}

// Restore decodes the checkpoint's algorithm-state blob into alg, which
// must be a freshly constructed instance of the snapshotted algorithm
// over the same inputs.
func (c *Checkpoint) Restore(alg Snapshotter) error {
	d := ckpt.NewRawDecoder(c.State)
	if err := alg.RestoreState(d); err != nil {
		return err
	}
	return d.Done()
}

// WriteCheckpoint atomically writes the checkpoint image to path: readers
// (and crashed writers) always see either the previous complete image or
// the new one, never a torn file.
func WriteCheckpoint(path string, c *Checkpoint) error {
	return ckpt.WriteFileAtomic(path, c.Encode())
}

// ReadCheckpoint reads and decodes a checkpoint image from path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// Checkpointer writes round-boundary checkpoints for a run. Install its
// Hook as the engine's AfterRound hook (optionally chained before a kill
// hook); every Every-th round it snapshots the algorithm and atomically
// replaces the image at Path.
type Checkpointer struct {
	// Path is the checkpoint file, atomically replaced on every write.
	Path string
	// Every is the checkpoint cadence in rounds (≤ 0 means every round).
	Every int
	// Key is the run key stored in every image (see Checkpoint.Key).
	Key string
	// TraceSync, when set, is called before each write to flush the run's
	// JSONL trace and report its byte length, recorded as TraceOffset.
	TraceSync func() (int64, error)
	// Metrics, when non-nil, receives ldc_ckpt_* updates.
	Metrics *obs.Registry
}

// Hook returns the RoundHook that checkpoints alg at the configured
// cadence.
func (c *Checkpointer) Hook(alg Snapshotter) RoundHook {
	every := c.Every
	if every < 1 {
		every = 1
	}
	return func(round int, stats *Stats) error {
		if (round+1)%every != 0 {
			return nil
		}
		off := int64(-1)
		if c.TraceSync != nil {
			o, err := c.TraceSync()
			if err != nil {
				return fmt.Errorf("sim: checkpoint trace sync: %w", err)
			}
			off = o
		}
		st := ckpt.NewRawEncoder()
		alg.SnapshotState(st)
		image := (&Checkpoint{Key: c.Key, Round: round + 1, TraceOffset: off, Stats: *stats, State: st.Finish()}).Encode()
		if err := ckpt.WriteFileAtomic(c.Path, image); err != nil {
			return fmt.Errorf("sim: checkpoint write: %w", err)
		}
		if reg := c.Metrics; reg != nil {
			reg.Counter(obs.MetricCkptWrites).Add(1)
			reg.Counter(obs.MetricCkptBytes).Add(int64(len(image)))
			reg.Gauge(obs.MetricCkptLastRound).Set(int64(round + 1))
		}
		return nil
	}
}
