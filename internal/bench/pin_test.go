package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current output")

// topLevelKeys returns the keys of the JSON object b in the order they
// appear.
func topLevelKeys(t *testing.T, b []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestReportKeysPin pins the schema string and the ordered top-level JSON
// keys of every report ldc-bench writes, so a refactor of the report
// structs cannot change the files readers parse.
func TestReportKeysPin(t *testing.T) {
	header := []string{"schema", "date", "goos", "goarch", "cpus"}
	keys := func(tail ...string) []string { return append(append([]string(nil), header...), tail...) }
	cases := []struct {
		name   string
		run    func() (any, error)
		schema string
		keys   []string
	}{
		{"chaos", func() (any, error) { return RunChaosBench(), nil },
			"ldc-chaos-bench/v1", keys("benchmarks")},
		{"serve", func() (any, error) { return RunServeBench() },
			"ldc-serve-bench/v1", keys("benchmarks")},
		{"recover", func() (any, error) { return RunRecoverBench() },
			"ldc-recover-bench/v1", keys("kill_recovery", "wal_replay")},
		{"matrix", func() (any, error) { return RunMatrixBench(true, "") },
			"ldc-matrix-bench/v1", keys("quick", "deltas", "rows")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := topLevelKeys(t, b); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("keys %q, pinned %q", got, tc.keys)
			}
			var head struct{ Schema string }
			if err := json.Unmarshal(b, &head); err != nil {
				t.Fatal(err)
			}
			if head.Schema != tc.schema {
				t.Errorf("schema %q, pinned %q", head.Schema, tc.schema)
			}
		})
	}
}

// TestQuickOutputPin pins the bytes `ldc-bench -quick` prints for E1–E13,
// with the wall-clock column of E12 removed: every other cell is a
// deterministic round, bit or colour count. Run with -update to rewrite
// the golden file.
func TestQuickOutputPin(t *testing.T) {
	s := Suite{Quick: true}
	var buf bytes.Buffer
	for _, run := range []func() (*Table, error){
		s.E1, s.E2, s.E3, s.E4, s.E5, s.E6, s.E7, s.E8, s.E9, s.E10, s.E11, s.E12, s.E13,
	} {
		tb, err := run()
		if err != nil {
			t.Fatal(err)
		}
		dropColumn(tb, "wall ms")
		tb.Render(&buf)
	}
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("quick output differs from %s:\n%s", golden, buf.String())
	}
}

// dropColumn removes the column headed name from t, if present.
func dropColumn(t *Table, name string) {
	for i, h := range t.Header {
		if h != name {
			continue
		}
		t.Header = append(t.Header[:i:i], t.Header[i+1:]...)
		for r, row := range t.Rows {
			t.Rows[r] = append(row[:i:i], row[i+1:]...)
		}
		return
	}
}
