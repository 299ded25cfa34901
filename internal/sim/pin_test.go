package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pinDigest folds values into one FNV-1a digest: byte slices verbatim,
// everything else through its %#v rendering, which distinguishes nil from
// empty slices, so a fault ledger that appears or vanishes changes it.
func pinDigest(vs ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		if b, ok := v.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%#v", v)
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// checkPin fails t unless got equals the digest pinned for name.
func checkPin(t *testing.T, pins map[string]uint64, name string, got uint64) {
	t.Helper()
	want, ok := pins[name]
	if !ok {
		t.Errorf("no pinned digest for %s (got %#016x)", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: digest %#016x, pinned %#016x", name, got, want)
	}
}
