package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// matrixPin is the deterministic part of one quick-matrix row: rounds,
// messages, total bits, the largest message and the colours used.
type matrixPin struct {
	rounds     int
	messages   int64
	bits       int64
	maxMsgBits int
	colors     int
}

// TestMatrixBenchQuick runs the who-wins matrix in quick mode: every
// family must produce a validated row for every Δ column, the emitted
// ldc-verify documents must exist and be non-empty, and every row's
// deterministic columns must match their pins.
func TestMatrixBenchQuick(t *testing.T) {
	pins := map[string]matrixPin{
		"oldc//8":                 {9, 3072, 246384, 742, 120},
		"fk24/buckets=default/8":  {20, 3072, 242736, 739, 127},
		"fk24/buckets=m/8":        {130, 3072, 242736, 739, 125},
		"maus21/k=2/8":            {51, 3072, 22528, 8, 41},
		"maus21/k=4/8":            {12, 4096, 27648, 8, 43},
		"delta1//8":               {39, 2996, 22026, 20, 7},
		"degluby//8":              {6, 3192, 18256, 8, 9},
		"oldc//16":                {12, 6144, 1949808, 2796, 122},
		"fk24/buckets=default/16": {36, 6144, 1943168, 2792, 122},
		"fk24/buckets=m/16":       {130, 6144, 1943168, 2792, 119},
		"maus21/k=2/16":           {129, 4096, 32768, 9, 45},
		"maus21/k=4/16":           {51, 6144, 47104, 9, 58},
		"delta1//16":              {65, 5756, 51596, 28, 14},
		"degluby//16":             {5, 6208, 41440, 10, 17},
		"oldc//32":                {15, 9216, 12760320, 13009, 94},
		"fk24/buckets=default/32": {68, 9216, 12754176, 13005, 94},
		"fk24/buckets=m/32":       {98, 9216, 12754176, 13005, 89},
		"maus21/k=2/32":           {97, 6144, 49152, 9, 36},
		"maus21/k=4/32":           {96, 3072, 30720, 10, 96},
		"delta1//32":              {106, 8104, 75814, 44, 23},
		"degluby//32":             {6, 10496, 88384, 12, 33},
	}
	dir := t.TempDir()
	rep, err := RunMatrixBench(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "ldc-matrix-bench/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	families := make(map[string]bool)
	wantRows := len(matrixFamilies) * len(matrixCases(true))
	if len(rep.Entries) != wantRows {
		t.Fatalf("%d rows, want %d", len(rep.Entries), wantRows)
	}
	var missing strings.Builder
	for _, row := range rep.Entries {
		families[row.Family] = true
		key := fmt.Sprintf("%s/%s/%d", row.Family, row.Knob, row.Delta)
		got := matrixPin{row.Rounds, row.Messages, row.TotalBits, row.MaxMsgBits, row.Colors}
		if want, ok := pins[key]; !ok {
			fmt.Fprintf(&missing, "\t%q: {%d, %d, %d, %d, %d},\n", key, got.rounds, got.messages, got.bits, got.maxMsgBits, got.colors)
		} else if got != want {
			t.Errorf("%s: got %+v, pinned %+v", key, got, want)
		}
		if !row.Valid {
			t.Errorf("%s/%s Δ=%d marked invalid", row.Family, row.Knob, row.Delta)
		}
		if row.Rounds <= 0 || row.Messages <= 0 {
			t.Errorf("%s/%s Δ=%d has empty stats: %+v", row.Family, row.Knob, row.Delta, row)
		}
		if row.Doc == "" {
			t.Errorf("%s/%s Δ=%d missing verify doc", row.Family, row.Knob, row.Delta)
			continue
		}
		st, err := os.Stat(filepath.Join(dir, row.Doc))
		if err != nil || st.Size() == 0 {
			t.Errorf("verify doc %s missing or empty (%v)", row.Doc, err)
		}
	}
	if missing.Len() > 0 {
		t.Errorf("unpinned rows:\n%s", missing.String())
	}
	if len(families) < 4 {
		t.Fatalf("only %d families measured, want >= 4", len(families))
	}
}
