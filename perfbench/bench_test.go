package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/coloring"
)

// tiny shrinks a workload's graph so a whole run takes about a second;
// every other setting, and so every code path, stays as benchmarked.
func tiny(w workload) workload {
	switch w.name {
	case "dense-oldc":
		w.n, w.d = 128, 16
	case "sparse-proper":
		w.n = 512
	default:
		w.n = 256
	}
	return w
}

// promisedNames reads the metric names BENCHMARK.json promises.
func promisedNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var named []string
	for _, w := range doc.Workloads {
		named = append(named, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(named, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", named, have)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got metrics, want []string) {
	t.Helper()
	var names []string
	for name, m := range got {
		names = append(names, name)
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", what, name)
		}
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("%s: metrics\n got %v\nwant %v", what, names, want)
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that every operation succeeds and that exactly the
// metrics of BENCHMARK.json are printed.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := promisedNames(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			b := &bench{w: tiny(w), seed: 3, seconds: 0.3, out: &out}
			res, err := b.measure(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			sameNames(t, w.name, res.Metrics, want)
		}
	}
}

// TestSmokeCommandLine checks the result line and exit codes of the
// command itself.
func TestSmokeCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	saved := workloads
	defer func() { workloads = saved }()
	for i := range workloads {
		workloads[i] = tiny(workloads[i])
	}
	out.Reset()
	code := run([]string{"--workload", "serve-churn", "--seed", "4", "--seconds", "0.2", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result has no %q", key)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	if !strings.Contains(out.String(), `"gomaxprocs"`) {
		t.Errorf("no environment header in output")
	}
}

// TestCorruptedColouringFails damages one family's colourings before they
// are validated and checks that each such run counts as a failed
// operation while the other families still pass.
func TestCorruptedColouringFails(t *testing.T) {
	var out bytes.Buffer
	corrupted := 0
	b := &bench{w: tiny(workloads[2]), seed: 5, seconds: 0.2, out: &out}
	b.corrupt = func(family string, phi coloring.Assignment) {
		if family == "fk24" {
			phi[0] = coloring.Unset
			corrupted++
		}
	}
	res, err := b.measure(false)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 || res.Failed != corrupted || res.Correct {
		t.Fatalf("corrupted %d colourings: correct=%v failed=%d\n%s", corrupted, res.Correct, res.Failed, out.String())
	}
	if _, ok := res.Metrics["fk24_cpu_s"]; ok {
		t.Errorf("fk24_cpu_s reported although every fk24 run failed")
	}
	if _, ok := res.Metrics["oldc_cpu_s"]; !ok {
		t.Errorf("oldc_cpu_s missing although oldc runs passed")
	}
	if !strings.Contains(out.String(), "FAILED fk24: invalid colouring") {
		t.Errorf("failure not reported:\n%s", out.String())
	}
}

func TestDigestMismatchFails(t *testing.T) {
	var tl tally
	tl.sameDigest("lists", "aa", "aa")
	tl.sameDigest("lists", "aa", "ab")
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", tl.attempted, tl.failed)
	}
	tl.record(errors.New("x"))
	if tl.failed != 2 {
		t.Fatalf("failed=%d, want 2", tl.failed)
	}
}

// TestSelfTimesPartitionSpan feeds the tracer a synthetic nesting of
// phases and checks that self times are span minus children and sum to
// the span.
func TestSelfTimesPartitionSpan(t *testing.T) {
	tr := &spanTracer{}
	ms := time.Millisecond
	tr.events = []event{
		{at: 10 * ms, phase: "congest/arb-driver"},
		{at: 20 * ms, phase: "arb/stage"},
		{at: 30 * ms, phase: "oldc/class-selection"},
		{at: 35 * ms, phase: "oldc/basic"},
		{at: 50 * ms, phase: "oldc/two-phase"},
		{at: 51 * ms, round: 0},
		{at: 53 * ms, round: 1},
		{at: 80 * ms, phase: "arb/stage"},
	}
	tr.spans = []span{{scope: "delta1", name: "solve", start: 0, end: 100 * ms, first: 0, last: len(tr.events)}}
	p := tr.analyze()
	want := map[string]time.Duration{
		"solve":                10 * ms,
		"congest/arb-driver":   10 * ms,
		"arb/stage":            (30 - 20 + 100 - 80) * ms,
		"oldc/class-selection": 5 * ms,
		"oldc/basic":           15 * ms,
		"oldc/two-phase":       30 * ms,
	}
	var sum time.Duration
	for name, d := range want {
		if got := p.self[[2]string{"delta1", name}]; got != d {
			t.Errorf("self(%s) = %v, want %v", name, got, d)
		}
		sum += p.self[[2]string{"delta1", name}]
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, want the span's 100ms", sum)
	}
	if got := p.rounds["delta1"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("round durations %v, want [2]", got)
	}
}
