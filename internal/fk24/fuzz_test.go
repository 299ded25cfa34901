package fk24

import (
	"reflect"
	"testing"

	"repro/internal/algkit"
	"repro/internal/bitio"
)

// FuzzDecodeFK24TypeMsg drives the hardened type-message decoder with
// arbitrary bit strings: decoding never panics, every accepted message
// satisfies the documented field ranges, and accepted messages
// re-encode/re-decode to the same value.
func FuzzDecodeFK24TypeMsg(f *testing.F) {
	seed := func(m, space int, msg typeMsg) []byte {
		msg.mWidth = bitio.WidthFor(m)
		msg.spaceSize = space
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		return w.Bytes()
	}
	f.Add(seed(900, 4096, typeMsg{initColor: 123, list: []int{5, 99, 2047}}), uint16(40), uint16(900), uint16(4096))
	f.Add(seed(64, 32, typeMsg{initColor: 7, list: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}), uint16(50), uint16(64), uint16(32))
	f.Add([]byte{0xFF, 0x00, 0xAB, 0x13}, uint16(32), uint16(100), uint16(64))
	f.Add([]byte{}, uint16(0), uint16(1), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, mRaw, spaceRaw uint16) {
		m := int(mRaw)%(1<<14) + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		r := bitio.NewReader(data, nbit)
		msg, err := decodeTypeMsg(r, typeDims{m, space})
		if err != nil {
			return
		}
		if msg.initColor < 0 || msg.initColor >= m || len(msg.list) == 0 {
			t.Fatalf("accepted message violates field ranges: %+v", msg)
		}
		for i, c := range msg.list {
			if c < 0 || c >= space || (i > 0 && c <= msg.list[i-1]) {
				t.Fatalf("accepted list invalid at %d: %v", i, msg.list)
			}
		}
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		again, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), typeDims{m, space})
		if err != nil {
			t.Fatalf("re-encode of accepted message failed to decode: %v", err)
		}
		if again.initColor != msg.initColor || !reflect.DeepEqual(again.list, msg.list) {
			t.Fatalf("decode not idempotent: %+v vs %+v", msg, again)
		}
	})
}

// FuzzDecodeFK24ControlMsgs covers the two fixed-width control messages
// fk24 sends (candidate-set index and commit color, decoded by algkit)
// under arbitrary input.
func FuzzDecodeFK24ControlMsgs(f *testing.F) {
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
		if m, err := algkit.DecodeIndexMsg(bitio.NewReader(data, nbit), kprime); err == nil {
			if m.Index < 0 || m.Index >= kprime {
				t.Fatalf("accepted set index out of range: %+v kprime=%d", m, kprime)
			}
		}
		if m, err := algkit.DecodeColorMsg(bitio.NewReader(data, nbit), space); err == nil {
			if m.Color < 0 || m.Color >= space {
				t.Fatalf("accepted commit color out of range: %+v space=%d", m, space)
			}
		}
	})
}
