package algkit

import (
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/sim"
)

// hugeListLength is the wire form of an explicit-list flag followed by a
// list length of 2^63, which converts to a negative int.
func hugeListLength() ([]byte, int) {
	w := bitio.NewWriter()
	w.WriteBit(1)
	w.WriteVarint(1 << 63)
	return w.Bytes(), w.Len()
}

func TestDecodeListRejectsHugeLength(t *testing.T) {
	buf, nbit := hugeListLength()
	for _, space := range []int{1, 16, 4096} {
		if list, err := DecodeList(bitio.NewReader(buf, nbit), space); err == nil {
			t.Fatalf("space %d: length 2^63 decoded to %v", space, list)
		}
	}
}

func TestListRoundTrip(t *testing.T) {
	for _, c := range []struct {
		list  []int
		space int
		bits  int // flag + payload
	}{
		// 1 + 3·12 = 37 < 4096: explicit, 1 + γ(4) + 3·12 bits.
		{[]int{5, 99, 2047}, 4096, 1 + 5 + 36},
		// 1 + 20·5 = 101 ≥ 32: characteristic vector, 1 + 32 bits.
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 32, 1 + 32},
		// A one-color space has zero-width colors; the bitset is 1 bit.
		{[]int{0}, 1, 1 + 1},
	} {
		w := bitio.NewWriter()
		EncodeList(w, c.list, c.space)
		if w.Len() != c.bits {
			t.Errorf("%v over %d: %d bits, want %d", c.list, c.space, w.Len(), c.bits)
		}
		r := bitio.NewReader(w.Bytes(), w.Len())
		got, err := DecodeList(r, c.space)
		if err != nil || !reflect.DeepEqual(got, c.list) || r.Remaining() != 0 {
			t.Errorf("%v over %d: decoded %v, err %v, %d bits left", c.list, c.space, got, err, r.Remaining())
		}
	}
}

func TestDecodeListRejectsBadLists(t *testing.T) {
	const space = 64 // 6-bit colors
	explicit := func(n int, colors ...int) *bitio.Reader {
		w := bitio.NewWriter()
		w.WriteBit(1)
		w.WriteVarint(uint64(n))
		for _, c := range colors {
			w.WriteUint(uint64(c), 6)
		}
		return bitio.NewReader(w.Bytes(), w.Len())
	}
	empty := bitio.NewWriter()
	empty.WriteBit(0)
	empty.WriteBitset(nil, space)
	for name, r := range map[string]*bitio.Reader{
		"descending":              explicit(2, 9, 5),
		"repeated":                explicit(2, 5, 5),
		"empty explicit":          explicit(0),
		"empty bitset":            bitio.NewReader(empty.Bytes(), empty.Len()),
		"longer than |C|":         explicit(space + 1),
		"longer than the payload": explicit(3, 1, 2),
		"no flag":                 bitio.NewReader(nil, 0),
	} {
		if list, err := DecodeList(r, space); err == nil {
			t.Errorf("%s: decoded %v", name, list)
		}
	}
	// 100 is encodable in 7 bits but outside a 100-color space.
	w := bitio.NewWriter()
	w.WriteBit(1)
	w.WriteVarint(1)
	w.WriteUint(100, 7)
	if list, err := DecodeList(bitio.NewReader(w.Bytes(), w.Len()), 100); err == nil {
		t.Errorf("out-of-space color decoded to %v", list)
	}
}

func TestIndexAndColorRoundTrip(t *testing.T) {
	w := bitio.NewWriter()
	IndexMsg{Index: 13, Width: bitio.WidthFor(16)}.EncodeBits(w)
	ColorMsg{Color: 512, Width: bitio.WidthFor(4096)}.EncodeBits(w)
	if w.Len() != 4+12 {
		t.Fatalf("encoded %d bits, want 16", w.Len())
	}
	r := bitio.NewReader(w.Bytes(), w.Len())
	got, err := DecodeIndexMsg(r, 16)
	if err != nil || got.Index != 13 {
		t.Fatalf("index=%d err=%v", got.Index, err)
	}
	gotC, err := DecodeColorMsg(r, 4096)
	if err != nil || gotC.Color != 512 {
		t.Fatalf("color=%d err=%v", gotC.Color, err)
	}
	if r.Remaining() != 0 {
		t.Fatal("leftover bits")
	}
}

func TestDecodeIndexRejectsOutOfRange(t *testing.T) {
	// width for kprime=10 is 4 bits; index 12 is encodable but invalid.
	w := bitio.NewWriter()
	w.WriteUint(12, bitio.WidthFor(10))
	if _, err := DecodeIndexMsg(bitio.NewReader(w.Bytes(), w.Len()), 10); err == nil {
		t.Fatal("out-of-family index decoded without error")
	}
	if _, err := DecodeIndexMsg(bitio.NewReader(nil, 0), 10); err == nil {
		t.Fatal("truncated index decoded without error")
	}
}

func TestDecodeColorRejectsOutOfRange(t *testing.T) {
	// width for space=100 is 7 bits; color 101 is encodable but invalid.
	w := bitio.NewWriter()
	w.WriteUint(101, bitio.WidthFor(100))
	if _, err := DecodeColorMsg(bitio.NewReader(w.Bytes(), w.Len()), 100); err == nil {
		t.Fatal("out-of-space color decoded without error")
	}
}

// countingSink counts reported decode faults.
type countingSink struct{ n int }

func (s *countingSink) ReportDecodeFault() { s.n++ }

// TestResolveIndexAndColor drives Resolve over the control messages: clean
// corrupt-path payloads decode, truncated and overlong ones are reported,
// a nil sink is safe, and a payload of the wrong kind is skipped without
// being counted as a wire fault.
func TestResolveIndexAndColor(t *testing.T) {
	sink := &countingSink{}
	w := bitio.NewWriter()
	IndexMsg{Index: 7, Width: bitio.WidthFor(10)}.EncodeBits(w)
	if msg, ok := Resolve(sim.CorruptPayload{Bits: w.Bytes(), NBit: w.Len()}, DecodeIndexMsg, 10, sink); !ok || msg.Index != 7 {
		t.Fatalf("clean index decode: ok=%v msg=%+v", ok, msg)
	}
	if sink.n != 0 {
		t.Fatal("clean decode reported a fault")
	}
	// An extra trailing bit violates exact consumption.
	if _, ok := Resolve(sim.CorruptPayload{Bits: w.Bytes(), NBit: w.Len() + 1}, DecodeIndexMsg, 10, sink); ok {
		t.Fatal("overlong index accepted")
	}
	// A native payload passes through untouched.
	if msg, ok := Resolve(sim.Payload(IndexMsg{Index: 3, Width: 4}), DecodeIndexMsg, 10, sink); !ok || msg.Index != 3 {
		t.Fatalf("native index: ok=%v msg=%+v", ok, msg)
	}

	w2 := bitio.NewWriter()
	ColorMsg{Color: 33, Width: bitio.WidthFor(100)}.EncodeBits(w2)
	if msg, ok := Resolve(sim.CorruptPayload{Bits: w2.Bytes(), NBit: w2.Len()}, DecodeColorMsg, 100, sink); !ok || msg.Color != 33 {
		t.Fatalf("clean color decode: ok=%v msg=%+v", ok, msg)
	}
	if _, ok := Resolve(sim.CorruptPayload{Bits: w2.Bytes(), NBit: 3}, DecodeColorMsg, 100, sink); ok {
		t.Fatal("truncated color accepted")
	}
	if sink.n != 2 {
		t.Fatalf("reported %d faults, want 2 (overlong index, truncated color)", sink.n)
	}
	if _, ok := Resolve(sim.CorruptPayload{Bits: w2.Bytes(), NBit: 3}, DecodeColorMsg, 100, nil); ok {
		t.Fatal("truncated color accepted with nil sink")
	}
	// The two control messages are distinct kinds: a color where an index
	// is expected is a schedule violation, not a wire fault.
	if _, ok := Resolve(sim.Payload(ColorMsg{Color: 1, Width: 7}), DecodeIndexMsg, 10, sink); ok {
		t.Fatal("wrong-kind payload accepted")
	}
	if sink.n != 2 {
		t.Fatal("wrong-kind payload reported as decode fault")
	}
}

func TestDecodeErrorMessage(t *testing.T) {
	_, err := DecodeColorMsg(bitio.NewReader(nil, 0), 100)
	if got, want := err.Error(), "wire: bad color message: truncated: "+bitio.ErrTruncated.Error(); got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}
