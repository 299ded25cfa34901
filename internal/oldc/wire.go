// Package oldc implements the paper's core contribution (Section 3): the
// deterministic distributed algorithms for oriented list defective coloring
// (OLDC).
//
//   - runBasic (single.go) is the basic algorithm of Section 3.2.3 for
//     instances where every node has one fixed defect value, including the
//     generalized gap-g variant.
//   - SolveMulti (multi.go) is Lemma 3.6: arbitrary defect functions are
//     reduced to the single-defect case by restricting each node to the
//     defect class with the largest (d+1)² mass.
//   - Solve (main.go) is Lemma 3.8 / Theorem 1.1: γ-classes are chosen by
//     an auxiliary generalized OLDC instance, and a two-phase algorithm
//     (ascending class iterations with bad-color removal, then descending
//     color selection) solves the instance under the weaker condition (6).
//
// All algorithms run on the synchronous simulator with bit-accounted
// CONGEST messages; the type messages use the exact encodings from the
// proof of Lemma 3.6 (send the restricted list, the defect, and the initial
// color instead of the astronomically large family K_v, which the receiver
// re-derives deterministically).
package oldc

import (
	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/sim"
)

// typeMsg carries a node's P2 type: its initial color, γ-class, single
// defect value, and restricted color list. The receiver re-derives the
// candidate family K deterministically from these fields (Lemma 3.6's
// encoding argument). The chosen set and the final color travel as
// algkit.IndexMsg and algkit.ColorMsg.
type typeMsg struct {
	initColor int
	gclass    int
	defect    int
	list      []int
	// encoding widths (global knowledge)
	mWidth    int
	hWidth    int
	spaceSize int
}

// EncodeBits writes the header fields, then the list through the shared
// list codec (the cheaper of a bitset or an explicit list).
func (m typeMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.initColor), m.mWidth)
	w.WriteUint(uint64(m.gclass), m.hWidth)
	w.WriteVarint(uint64(m.defect))
	algkit.EncodeList(w, m.list, m.spaceSize)
}

var _ sim.Payload = typeMsg{}

// typeDims are the global parameters a type message decodes against: the
// initial color count m, the γ-class count h and the color space |C|.
type typeDims struct{ m, h, space int }

// maxWireDefect bounds the defect field a decoder accepts: no instance in
// this repository has defects anywhere near 2^32, so anything larger is
// corruption, and rejecting it keeps int conversions safe on every
// platform.
const maxWireDefect = 1 << 32

// decodeTypeMsg parses the wire form of a typeMsg. The returned message is
// fully validated: initColor ∈ [0, m), γ-class ∈ [1, h], a bounded defect,
// and a list algkit.DecodeList accepts.
func decodeTypeMsg(r *bitio.Reader, d typeDims) (typeMsg, error) {
	fail := func(reason string) (typeMsg, error) {
		return typeMsg{}, &algkit.DecodeError{Kind: "oldc type message", Reason: reason, Err: r.Err()}
	}
	out := typeMsg{mWidth: bitio.WidthFor(d.m), hWidth: bitio.WidthFor(d.h + 1), spaceSize: d.space}
	out.initColor = int(r.ReadUint(out.mWidth))
	out.gclass = int(r.ReadUint(out.hWidth))
	defect := r.ReadVarint()
	if r.Err() != nil {
		return fail("truncated header")
	}
	if out.initColor >= d.m {
		return fail("initial color outside [0, m)")
	}
	if out.gclass < 1 || out.gclass > d.h {
		return fail("γ-class outside [1, h]")
	}
	if defect >= maxWireDefect {
		return fail("absurd defect value")
	}
	out.defect = int(defect)
	list, err := algkit.DecodeList(r, d.space)
	if err != nil {
		return typeMsg{}, err
	}
	out.list = list
	return out, nil
}

// typeMsgOf returns node v's type message announcing list.
func (s *basicSpec) typeMsgOf(v int, list []int) typeMsg {
	return typeMsg{
		initColor: s.initColors[v],
		gclass:    s.gclass[v],
		defect:    s.defect[v],
		list:      list,
		mWidth:    bitio.WidthFor(s.m),
		hWidth:    bitio.WidthFor(s.h + 1),
		spaceSize: s.spaceSize,
	}
}
