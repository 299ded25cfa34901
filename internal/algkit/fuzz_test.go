package algkit

import (
	"reflect"
	"testing"

	"repro/internal/bitio"
)

// FuzzDecodeControlMsgs covers the shared wire decoders under arbitrary
// input: the two fixed-width control messages (candidate-set index and
// color) and the list codec. Decoding never panics, accepted values lie in
// range, and an accepted list re-encodes and re-decodes to itself.
func FuzzDecodeControlMsgs(f *testing.F) {
	f.Add([]byte{0xD0}, uint16(8), uint16(10), uint16(100))
	f.Add([]byte{0x00, 0x00}, uint16(16), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF}, uint16(11), uint16(4096), uint16(4096))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, kRaw, spaceRaw uint16) {
		kprime := int(kRaw)%(1<<12) + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		if m, err := DecodeIndexMsg(bitio.NewReader(data, nbit), kprime); err == nil && (m.Index < 0 || m.Index >= kprime) {
			t.Fatalf("accepted out-of-family index %d (k'=%d)", m.Index, kprime)
		}
		if m, err := DecodeColorMsg(bitio.NewReader(data, nbit), space); err == nil && (m.Color < 0 || m.Color >= space) {
			t.Fatalf("accepted out-of-space color %d (|C|=%d)", m.Color, space)
		}
		list, err := DecodeList(bitio.NewReader(data, nbit), space)
		if err != nil {
			return
		}
		if len(list) == 0 {
			t.Fatal("accepted an empty list")
		}
		for i, c := range list {
			if c < 0 || c >= space || (i > 0 && c <= list[i-1]) {
				t.Fatalf("accepted list invalid at %d: %v", i, list)
			}
		}
		w := bitio.NewWriter()
		EncodeList(w, list, space)
		again, err := DecodeList(bitio.NewReader(w.Bytes(), w.Len()), space)
		if err != nil || !reflect.DeepEqual(again, list) {
			t.Fatalf("list not idempotent: %v vs %v (err %v)", list, again, err)
		}
	})
}
