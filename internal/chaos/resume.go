package chaos

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Checkpointed is a resumable run for SuperviseCheckpointed: where its
// round checkpoints live, which kills to inject, how to rebuild the run
// on every attempt, and the trace file to keep byte-identical across
// restarts.
type Checkpointed struct {
	// Path is the checkpoint image, rewritten at round boundaries and
	// resumed from when it already exists (so a previous process's crash
	// is recoverable, not just in-process kills).
	Path string
	// Every is the checkpoint cadence in rounds (≤ 0 means every round).
	Every int
	// Key is the run key stored in every image; an existing image with
	// another key is refused before anything is restored.
	Key string
	// Plan supplies the kill schedule; nil checkpoints without kills.
	Plan *Plan
	// NewEngine builds a fresh engine for each attempt.
	NewEngine func() *sim.Engine
	// Prepare rebuilds the run on eng: the algorithm to run (or restore a
	// checkpoint into), its round budget, and the stats a fresh attempt
	// starts from. It may run rounds and emit trace events of its own;
	// they are deterministic, so every attempt repeats them identically.
	Prepare func(eng *sim.Engine) (alg sim.Snapshotter, maxRounds int, prior sim.Stats, err error)
	// Trace is the trace file, or nil when the run is untraced or traces
	// to a stream that cannot be truncated; Tracer is its writer.
	Trace  *os.File
	Tracer *obs.JSONL
	// Metrics, when non-nil, receives the ldc_ckpt_* updates.
	Metrics *obs.Registry
	// Log, when non-nil, receives one line per resume.
	Log io.Writer
}

// SuperviseCheckpointed runs c under Supervise. Every attempt builds a
// fresh engine and algorithm, resumes from the checkpoint at c.Path when
// one exists, and chains the checkpoint hook before the plan's kill hook,
// so the round a kill interrupts is already persisted; one kill hook
// serves the whole run, so fired kills stay fired. It returns the stats
// of the finishing attempt (identical to an uninterrupted run's by the
// RunFrom contract), the restarts consumed, and the total time spent
// reading and restoring checkpoints.
//
// The trace bookkeeping is order-sensitive because Prepare may emit trace
// events. A fresh attempt rewinds the trace to where the run started
// before preparing; a resumed attempt prepares, restores, and then
// rewinds to the checkpoint's offset, which truncates exactly the
// repeated preparation events (the first attempt's copy sits before that
// offset). Either way the final trace is byte-identical to an
// uninterrupted run's.
func SuperviseCheckpointed(opts SuperviseOptions, c Checkpointed) (sim.Stats, int, time.Duration, error) {
	var (
		stats    sim.Stats
		restarts int
		restore  time.Duration
	)
	// The offset a fresh attempt rewinds the trace to: everything before
	// the first round event.
	baseOffset := int64(-1)
	ckp := &sim.Checkpointer{Path: c.Path, Every: c.Every, Key: c.Key, Metrics: c.Metrics}
	if c.Trace != nil {
		off, err := c.traceOffset()
		if err != nil {
			return stats, 0, 0, err
		}
		baseOffset = off
		ckp.TraceSync = c.traceOffset
	}
	var killHook sim.RoundHook
	if c.Plan != nil {
		killHook = c.Plan.KillHook()
	}
	err := Supervise(opts, func(attempt int) error {
		restarts = attempt
		t0 := time.Now()
		ck, err := sim.ReadCheckpoint(c.Path)
		read := time.Since(t0)
		switch {
		case err == nil:
			if ck.Key != c.Key {
				return fmt.Errorf("chaos: checkpoint %s belongs to run %q, not to this run %q", c.Path, ck.Key, c.Key)
			}
		case os.IsNotExist(err):
			// No checkpoint yet: a killed attempt that never reached its
			// first checkpoint restarts from scratch, dropping any rounds
			// it traced.
			ck = nil
			if err := c.rewindTrace(baseOffset); err != nil {
				return err
			}
		default:
			return err
		}
		eng := c.NewEngine()
		alg, maxRounds, prior, err := c.Prepare(eng)
		if err != nil {
			return err
		}
		start := 0
		if ck != nil {
			t0 := time.Now()
			if err := ck.Restore(alg); err != nil {
				return fmt.Errorf("restore checkpoint %s: %w", c.Path, err)
			}
			restore += read + time.Since(t0)
			if err := c.rewindTrace(ck.TraceOffset); err != nil {
				return err
			}
			start, prior = ck.Round, ck.Stats
			if c.Metrics != nil {
				c.Metrics.Counter(obs.MetricCkptRestores).Add(1)
			}
			if c.Log != nil {
				fmt.Fprintf(c.Log, "chaos: resuming from %s at round %d\n", c.Path, ck.Round)
			}
		}
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), killHook))
		stats, err = eng.RunFrom(alg, start, maxRounds, prior)
		return err
	})
	return stats, restarts, restore, err
}

// traceOffset flushes the tracer and returns the trace file's length.
func (c *Checkpointed) traceOffset() (int64, error) {
	if err := c.Tracer.Flush(); err != nil {
		return 0, err
	}
	return c.Trace.Seek(0, io.SeekCurrent)
}

// rewindTrace flushes the tracer and truncates the trace file back to
// off, so rounds a killed attempt traced past its last checkpoint are not
// recorded twice when the resumed attempt replays them. An offset beyond
// the current file (a checkpoint inherited from an earlier process whose
// trace this run recreated from scratch) is left alone: the new trace
// then covers only the resumed rounds.
func (c *Checkpointed) rewindTrace(off int64) error {
	if c.Trace == nil || off < 0 {
		return nil
	}
	if err := c.Tracer.Flush(); err != nil {
		return err
	}
	st, err := c.Trace.Stat()
	if err != nil {
		return err
	}
	if off > st.Size() {
		return nil
	}
	if err := c.Trace.Truncate(off); err != nil {
		return err
	}
	_, err = c.Trace.Seek(off, io.SeekStart)
	return err
}
