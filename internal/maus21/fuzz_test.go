package maus21

import (
	"testing"

	"repro/internal/bitio"
)

// FuzzDecodePickMsg drives the hardened pick-message decoder with
// arbitrary bit strings: decoding never panics, accepted messages satisfy
// the field ranges, and accepted messages re-encode/re-decode identically.
func FuzzDecodePickMsg(f *testing.F) {
	seed := func(q1, palette, class, pick int) []byte {
		w := bitio.NewWriter()
		pickMsg{
			class:      class,
			pick:       pick,
			classWidth: bitio.WidthFor(q1),
			pickWidth:  bitio.WidthFor(palette),
		}.EncodeBits(w)
		return w.Bytes()
	}
	f.Add(seed(121, 4, 37, 2), uint16(9), uint16(121), uint8(4))
	f.Add(seed(1, 1, 0, 0), uint16(1), uint16(1), uint8(1))
	f.Add([]byte{0xFF, 0xA0}, uint16(16), uint16(300), uint8(7))
	f.Add([]byte{}, uint16(0), uint16(5), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, q1Raw uint16, palRaw uint8) {
		q1 := int(q1Raw)%(1<<12) + 1
		palette := int(palRaw)%64 + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		r := bitio.NewReader(data, nbit)
		m, err := decodePickMsg(r, pickDims{q1, palette})
		if err != nil {
			return
		}
		if m.class < 0 || m.class >= q1 || m.pick < 0 || m.pick >= palette {
			t.Fatalf("accepted message violates field ranges: %+v (q1=%d palette=%d)", m, q1, palette)
		}
		w := bitio.NewWriter()
		m.EncodeBits(w)
		again, err := decodePickMsg(bitio.NewReader(w.Bytes(), w.Len()), pickDims{q1, palette})
		if err != nil {
			t.Fatalf("re-encode of accepted message failed to decode: %v", err)
		}
		if again.class != m.class || again.pick != m.pick {
			t.Fatalf("decode not idempotent: %+v vs %+v", m, again)
		}
	})
}
