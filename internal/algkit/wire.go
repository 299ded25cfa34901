package algkit

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/sim"
)

// The simulator hands a receiver the payload value itself and runs
// EncodeBits only for bandwidth accounting. The decoders here certify that
// every encoding is self-contained (a real CONGEST wire could carry exactly
// these bits), and they are the recovery path for corrupted payloads: when
// the fault model flips a bit, the receiver gets a sim.CorruptPayload and
// Resolve re-parses the damaged bits. Every decoder therefore validates its
// fields against the globally known parameters and returns a
// *DecodeError, never panicking and never accepting an out-of-range value.

// DecodeError reports a wire payload that failed to parse as the expected
// message kind: truncated, syntactically malformed, or carrying a field
// outside the range the global parameters allow.
type DecodeError struct {
	Kind   string // the message or field, e.g. "index message" or "color list"
	Reason string // what was wrong
	Err    error  // underlying bitio error, if any
}

// Error describes the malformed message, including the underlying bitio
// error when there is one.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wire: bad %s: %s: %v", e.Kind, e.Reason, e.Err)
	}
	return fmt.Sprintf("wire: bad %s: %s", e.Kind, e.Reason)
}

// Unwrap exposes the underlying bitio error for errors.Is/As chains.
func (e *DecodeError) Unwrap() error { return e.Err }

// FaultReporter receives detected decode failures; *sim.Engine implements
// it (ReportDecodeFault feeds the per-round fault ledger).
type FaultReporter interface{ ReportDecodeFault() }

// Resolve turns an inbox payload into the message kind T the round
// schedule expects. A clean T passes through. A corrupted payload is
// re-parsed by decode against the parameters p and must be consumed
// exactly; a failure is reported to sink (when non-nil) and skipped, so the
// algorithm treats the wire as dropped, which the defective-coloring
// analysis tolerates. Any other kind is a round-schedule violation: it is
// skipped and not counted as a wire fault.
func Resolve[T sim.Payload, P any](pay sim.Payload, decode func(*bitio.Reader, P) (T, error), p P, sink FaultReporter) (T, bool) {
	switch q := pay.(type) {
	case T:
		return q, true
	case sim.CorruptPayload:
		r := q.Reader()
		if msg, err := decode(r, p); err == nil && r.Remaining() == 0 {
			return msg, true
		}
		if sink != nil {
			sink.ReportDecodeFault()
		}
	}
	var zero T
	return zero, false
}

// EncodeList writes a strictly ascending color list over a space of the
// given size as the cheaper of a characteristic vector (|C| bits) or an
// explicit list (a length, then ⌈log |C|⌉ bits per color): the
// min{|C|, Λ·log|C|} term of Theorem 1.1's message bound. A one-bit flag
// selects the branch.
func EncodeList(w *bitio.Writer, list []int, space int) {
	cw := bitio.WidthFor(space)
	if space <= 1+len(list)*cw {
		w.WriteBit(0)
		w.WriteBitset(list, space)
		return
	}
	w.WriteBit(1)
	w.WriteVarint(uint64(len(list)))
	for _, c := range list {
		w.WriteUint(uint64(c), cw)
	}
}

// DecodeList reads a list written by EncodeList. The returned list is
// non-empty, strictly ascending and inside [0, space).
func DecodeList(r *bitio.Reader, space int) ([]int, error) {
	fail := func(reason string) ([]int, error) {
		return nil, &DecodeError{Kind: "color list", Reason: reason, Err: r.Err()}
	}
	var list []int
	if r.ReadBit() == 0 {
		list = r.ReadBitset(space)
		if r.Err() != nil {
			return fail("truncated bitset")
		}
	} else {
		cw := bitio.WidthFor(space)
		n := int(r.ReadVarint())
		if r.Err() != nil {
			return fail("truncated length")
		}
		// A strictly ascending in-range list has at most |C| entries, and
		// its encoding needs n·cw more bits; checking both before the loop
		// bounds work and allocation on hostile input. A length of 2^63 or
		// more is negative after the conversion and fails the first test.
		if n < 0 || n > space || n*cw > r.Remaining() {
			return fail("length exceeds the color space or the payload")
		}
		list = make([]int, 0, n)
		for i := 0; i < n; i++ {
			c := int(r.ReadUint(cw))
			if c >= space {
				return fail("color outside the space")
			}
			if i > 0 && c <= list[i-1] {
				return fail("not strictly ascending")
			}
			list = append(list, c)
		}
		if r.Err() != nil {
			return fail("truncated")
		}
	}
	if len(list) == 0 {
		return fail("empty")
	}
	return list, nil
}

// IndexMsg announces a node's chosen candidate set as an index into its
// candidate family; receivers re-derive the family from the node's type.
type IndexMsg struct {
	Index int // position in the family
	Width int // encoded bits: bitio.WidthFor(k′)
}

// EncodeBits writes the index in Width bits.
func (m IndexMsg) EncodeBits(w *bitio.Writer) { w.WriteUint(uint64(m.Index), m.Width) }

// DecodeIndexMsg parses an IndexMsg; the index must address the
// k′-set candidate family.
func DecodeIndexMsg(r *bitio.Reader, kprime int) (IndexMsg, error) {
	w := bitio.WidthFor(kprime)
	idx := int(r.ReadUint(w))
	if r.Err() != nil {
		return IndexMsg{}, &DecodeError{Kind: "index message", Reason: "truncated", Err: r.Err()}
	}
	if kprime > 0 && idx >= kprime {
		return IndexMsg{}, &DecodeError{Kind: "index message", Reason: "index outside the candidate family"}
	}
	return IndexMsg{Index: idx, Width: w}, nil
}

// ColorMsg announces a node's final (or committed) color.
type ColorMsg struct {
	Color int // the color, inside the space
	Width int // encoded bits: bitio.WidthFor(|C|)
}

// EncodeBits writes the color in Width bits.
func (m ColorMsg) EncodeBits(w *bitio.Writer) { w.WriteUint(uint64(m.Color), m.Width) }

// DecodeColorMsg parses a ColorMsg; the color must lie in the space.
func DecodeColorMsg(r *bitio.Reader, space int) (ColorMsg, error) {
	w := bitio.WidthFor(space)
	c := int(r.ReadUint(w))
	if r.Err() != nil {
		return ColorMsg{}, &DecodeError{Kind: "color message", Reason: "truncated", Err: r.Err()}
	}
	if space > 0 && c >= space {
		return ColorMsg{}, &DecodeError{Kind: "color message", Reason: "color outside the space"}
	}
	return ColorMsg{Color: c, Width: w}, nil
}
