package oldc

import (
	"reflect"
	"testing"

	"repro/internal/algkit"
	"repro/internal/bitio"
)

// FuzzDecodeTypeMsg drives the hardened type-message decoder with
// arbitrary bit strings and parameter combinations. The invariants:
// decoding never panics, every accepted message satisfies the documented
// field ranges, and accepted messages re-encode/re-decode to the same
// value (decode is idempotent on its own output).
func FuzzDecodeTypeMsg(f *testing.F) {
	// A valid explicit-list message, a valid bitset message, and garbage.
	seed := func(m, h, space int, msg typeMsg) []byte {
		msg.mWidth = bitio.WidthFor(m)
		msg.hWidth = bitio.WidthFor(h + 1)
		msg.spaceSize = space
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		return w.Bytes()
	}
	f.Add(seed(900, 6, 4096, typeMsg{initColor: 123, gclass: 4, defect: 17, list: []int{5, 99, 2047}}), uint16(40), uint16(900), uint8(6), uint16(4096))
	f.Add(seed(64, 3, 32, typeMsg{initColor: 7, gclass: 2, defect: 1, list: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}), uint16(50), uint16(64), uint8(3), uint16(32))
	f.Add([]byte{0xFF, 0x00, 0xAB, 0x13}, uint16(32), uint16(100), uint8(4), uint16(64))
	f.Add([]byte{}, uint16(0), uint16(1), uint8(1), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, mRaw uint16, hRaw uint8, spaceRaw uint16) {
		m := int(mRaw)%(1<<14) + 1
		h := int(hRaw)%16 + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		r := bitio.NewReader(data, nbit)
		msg, err := decodeTypeMsg(r, typeDims{m, h, space})
		if err != nil {
			return
		}
		if msg.initColor < 0 || msg.initColor >= m || msg.gclass < 1 || msg.gclass > h ||
			msg.defect < 0 || len(msg.list) == 0 {
			t.Fatalf("accepted message violates field ranges: %+v", msg)
		}
		for i, c := range msg.list {
			if c < 0 || c >= space || (i > 0 && c <= msg.list[i-1]) {
				t.Fatalf("accepted list invalid at %d: %v", i, msg.list)
			}
		}
		// Idempotence: the accepted value re-encodes to a decodable message
		// with identical fields (the branch flag may differ from the input).
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		again, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), typeDims{m, h, space})
		if err != nil {
			t.Fatalf("re-encode of accepted message failed to decode: %v", err)
		}
		if again.initColor != msg.initColor || again.gclass != msg.gclass ||
			again.defect != msg.defect || !reflect.DeepEqual(again.list, msg.list) {
			t.Fatalf("decode not idempotent: %+v vs %+v", msg, again)
		}
	})
}

// FuzzDecodeControlMsgs covers the two fixed-width control messages oldc
// sends (chosen-set index and final color, decoded by algkit) under
// arbitrary input.
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
		cs, err := algkit.DecodeIndexMsg(bitio.NewReader(data, nbit), kprime)
		if err == nil && (cs.Index < 0 || cs.Index >= kprime) {
			t.Fatalf("accepted out-of-family index %d (k'=%d)", cs.Index, kprime)
		}
		cm, err := algkit.DecodeColorMsg(bitio.NewReader(data, nbit), space)
		if err == nil && (cm.Color < 0 || cm.Color >= space) {
			t.Fatalf("accepted out-of-space color %d (|C|=%d)", cm.Color, space)
		}
	})
}
