package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/family"
)

// runJSON executes run() with -json plus args and decodes the report.
func runJSON(t *testing.T, args ...string) (output, int) {
	t.Helper()
	var buf strings.Builder
	code := run(append(args, "-json"), &buf, io.Discard)
	var out output
	if code == 0 {
		if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
			t.Fatalf("decode run output: %v\n%s", err, buf.String())
		}
	}
	return out, code
}

var deglubyArgs = []string{"-graph", "regular", "-n", "96", "-deg", "6", "-algo", "degluby"}

// resumeArgs is the graph the per-family kill/resume subtests run on.
var resumeArgs = []string{"-graph", "regular", "-n", "96", "-deg", "6"}

// forEachFamily runs test as one subtest per family that keep accepts,
// with args selecting that family, and fails if there is none.
func forEachFamily(t *testing.T, keep func(*family.Family) bool, test func(t *testing.T, args []string)) {
	t.Helper()
	names := family.Names(keep)
	if len(names) == 0 {
		t.Fatal("no family declares the capability")
	}
	for _, name := range names {
		args := append(append([]string(nil), resumeArgs...), "-algo", name)
		t.Run(name, func(t *testing.T) { test(t, args) })
	}
}

// TestKillResumeMatchesUninterrupted pins the supervisor's core contract
// for every resumable family: a run killed mid-flight and resumed from its
// checkpoint produces the same coloring, rounds, and message totals as a
// run that was never interrupted — including the JSONL trace, byte for
// byte (for oldc this covers the re-prepared class-selection phase events,
// which the supervisor truncates back out of the trace on resume).
func TestKillResumeMatchesUninterrupted(t *testing.T) {
	forEachFamily(t, resumable, func(t *testing.T, args []string) {
		dir := t.TempDir()
		baseTrace := filepath.Join(dir, "base.jsonl")
		base, code := runJSON(t, append(args, "-trace", baseTrace)...)
		if code != 0 {
			t.Fatalf("baseline run exit %d", code)
		}

		killTrace := filepath.Join(dir, "kill.jsonl")
		killed, code := runJSON(t, append(args,
			"-chaos", "kill:2+kill:4", "-ckpt", filepath.Join(dir, "run.ckpt"), "-trace", killTrace)...)
		if code != 0 {
			t.Fatalf("killed run exit %d", code)
		}
		if killed.Restarts != 2 {
			t.Fatalf("restarts = %d, want 2", killed.Restarts)
		}
		if killed.Rounds != base.Rounds || killed.Messages != base.Messages || killed.TotalBits != base.TotalBits {
			t.Fatalf("killed run stats diverge: %d/%d/%d vs %d/%d/%d",
				killed.Rounds, killed.Messages, killed.TotalBits, base.Rounds, base.Messages, base.TotalBits)
		}
		if !killed.Valid {
			t.Fatal("killed run produced an invalid coloring")
		}
		for v := range base.Coloring {
			if killed.Coloring[v] != base.Coloring[v] {
				t.Fatalf("node %d colored %d after resume, %d uninterrupted", v, killed.Coloring[v], base.Coloring[v])
			}
		}
		got, err := os.ReadFile(killTrace)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(baseTrace)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resumed trace is not byte-identical to the uninterrupted trace (%d vs %d bytes)", len(got), len(want))
		}
	})
}

// TestKillShardResumeSharded runs the killshard builtin on the sharded
// engine and checks the resumed coloring still matches the serial
// uninterrupted baseline (sharding and kills are both transparent).
func TestKillShardResumeSharded(t *testing.T) {
	base, code := runJSON(t, deglubyArgs...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}
	killed, code := runJSON(t, append(deglubyArgs,
		"-shards", "4", "-chaos", "killshard-1@4", "-ckpt", filepath.Join(t.TempDir(), "s.ckpt"))...)
	if code != 0 {
		t.Fatalf("sharded kill run exit %d", code)
	}
	if killed.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", killed.Restarts)
	}
	for v := range base.Coloring {
		if killed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after shard kill, %d baseline", v, killed.Coloring[v], base.Coloring[v])
		}
	}
}

// TestCrossProcessResume simulates a real crash for every resumable
// family: the first invocation has no restart budget, so the kill takes
// the whole run down (exit 1) with a checkpoint left on disk; a second
// independent invocation pointed at the same -ckpt resumes it to the
// baseline coloring and stats.
func TestCrossProcessResume(t *testing.T) {
	forEachFamily(t, resumable, func(t *testing.T, args []string) {
		base, code := runJSON(t, args...)
		if code != 0 {
			t.Fatalf("baseline run exit %d", code)
		}
		ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
		if _, code := runJSON(t, append(args,
			"-chaos", "kill:3", "-ckpt", ckpt, "-max-restarts", "0")...); code != 1 {
			t.Fatalf("unsupervised kill exit %d, want 1", code)
		}
		resumed, code := runJSON(t, append(args, "-ckpt", ckpt)...)
		if code != 0 {
			t.Fatalf("resume run exit %d", code)
		}
		if resumed.Rounds != base.Rounds || resumed.Messages != base.Messages {
			t.Fatalf("resumed stats diverge: %d/%d vs %d/%d",
				resumed.Rounds, resumed.Messages, base.Rounds, base.Messages)
		}
		for v := range base.Coloring {
			if resumed.Coloring[v] != base.Coloring[v] {
				t.Fatalf("node %d colored %d after cross-process resume, %d baseline", v, resumed.Coloring[v], base.Coloring[v])
			}
		}
	})
}

// TestCheckpointRefusesOtherRun pins that a checkpoint only resumes the
// run it was written by: a killed degluby image offered to a run with
// another seed, or to another algorithm, fails before anything is
// restored, with an error naming both run keys.
func TestCheckpointRefusesOtherRun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
	if _, code := runJSON(t, append(deglubyArgs, "-chaos", "kill:3", "-ckpt", ckpt, "-max-restarts", "0")...); code != 1 {
		t.Fatalf("unsupervised kill exit %d, want 1", code)
	}
	for _, other := range [][]string{
		append(deglubyArgs, "-seed", "2"),
		{"-graph", "regular", "-n", "96", "-deg", "6", "-algo", "oldc"},
	} {
		var stderr strings.Builder
		code := run(append(other, "-ckpt", ckpt), io.Discard, &stderr)
		if code != 1 {
			t.Fatalf("run(%v) on a foreign checkpoint = %d, want 1", other, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, `"degluby/graph=`) || !strings.Contains(msg, "/seed=1/") ||
			!strings.Contains(msg, "belongs to run") {
			t.Fatalf("run(%v) error does not name both run keys:\n%s", other, msg)
		}
	}
}

// TestCorruptingSchedules runs every family that declares corrupting
// wire faults under the built-in flip-1pct and storm schedules: each run
// must end valid or invalid (exit 0 or 1), never as a usage error or a
// panic.
func TestCorruptingSchedules(t *testing.T) {
	forEachFamily(t, takesFlips, func(t *testing.T, args []string) {
		for _, sched := range []string{"flip-1pct", "storm"} {
			if code := run(append(args, "-chaos", sched), io.Discard, io.Discard); code != 0 && code != 1 {
				t.Fatalf("-chaos %s exit %d, want 0 or 1", sched, code)
			}
		}
	})
}

// TestSuperviseUsageErrors pins the exit-2 contract for the flag
// combinations the supervisor refuses, and that -shards is not one of
// them: a checkpointed oldc solve on two shards reproduces the one-shard
// coloring.
func TestSuperviseUsageErrors(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "x.ckpt")
	cases := []struct {
		name string
		args []string
	}{
		{"kill without ckpt", append(deglubyArgs, "-chaos", "kill:3")},
		{"kill with oldc without ckpt", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-chaos", "kill:3"}},
		{"kill with luby", []string{"-graph", "ring", "-n", "16", "-algo", "luby", "-chaos", "kill:3"}},
		{"ckpt with repair", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-ckpt", ckpt, "-repair"}},
		{"chaos with maus21", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "maus21", "-chaos", "drop-10pct"}},
		{"flip with degluby", append(deglubyArgs, "-chaos", "flip-1pct")},
		{"storm with degluby", append(deglubyArgs, "-chaos", "storm", "-ckpt", ckpt)},
		{"ckpt with luby", []string{"-graph", "ring", "-n", "16", "-algo", "luby", "-ckpt", ckpt}},
		{"kill with stdout trace", append(deglubyArgs, "-chaos", "kill:3", "-ckpt", ckpt, "-trace", "-")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if code := run(tc.args, io.Discard, io.Discard); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
		})
	}
	t.Run("ckpt oldc with shards", func(t *testing.T) {
		sameAsOneShard(t, []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-ckpt", "x.ckpt", "-shards", "2"})
	})
	// A conflicting spec (duplicate kill round) fails through the chaos
	// parser's typed *ConflictError, which is a run failure, not usage.
	if code := run(append(deglubyArgs, "-chaos", "kill:3+kill:3", "-ckpt", ckpt), io.Discard, io.Discard); code != 1 {
		t.Fatalf("conflicting kill spec exit %d, want 1", code)
	}
}
