// Package ckpt provides the shared binary framing used by every
// crash-recovery image in the repo: engine round checkpoints
// (internal/sim, "ldc-ckpt/v2"), service state snapshots (internal/serve,
// "ldc-snap/v1"), and the record payloads of the mutation WAL.
//
// An image is a magic string, a sequence of sections (unsigned varints,
// zigzag varints, and length-prefixed byte strings), and a CRC32-C trailer
// over everything before it. Decoders are sticky like bitio.Reader: the
// first malformed section latches a typed *CorruptError and every later
// read returns zero values, so callers validate once at the end. All
// length fields are clamped against the bytes actually present before any
// allocation, which is what makes the decoders safe to fuzz with
// arbitrary input.
//
// Raw (unframed) encoders and decoders handle nested blobs whose
// integrity is already covered by an enclosing image's CRC, such as the
// opaque algorithm-state section of an engine checkpoint.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// castagnoli is the CRC32-C polynomial table shared by all images and WAL
// records; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C checksum of data, the integrity check used
// by every image trailer and WAL record in the repo.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CorruptError reports a structurally invalid image: bad magic, checksum
// mismatch, a truncated or malformed section, or trailing garbage. Magic
// identifies the format being decoded, Offset is the byte position where
// decoding failed (best effort), and Reason says what went wrong.
type CorruptError struct {
	Magic  string
	Offset int
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	magic := e.Magic
	if magic == "" {
		magic = "raw"
	}
	return fmt.Sprintf("ckpt: corrupt %s image at byte %d: %s", magic, e.Offset, e.Reason)
}

// Encoder builds one image. Sections are appended in call order; Finish
// seals the image with the CRC32-C trailer. The zero Encoder is not
// usable; construct with NewEncoder or NewRawEncoder.
type Encoder struct {
	buf    []byte
	framed bool
}

// NewEncoder starts a framed image beginning with the given magic string.
func NewEncoder(magic string) *Encoder {
	return &Encoder{buf: append(make([]byte, 0, 256), magic...), framed: true}
}

// NewRawEncoder starts an unframed section blob (no magic, no trailer)
// intended to be embedded via Encoder.Bytes inside a framed image.
func NewRawEncoder() *Encoder { return &Encoder{} }

// Uvarint appends an unsigned varint section.
func (e *Encoder) Uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// Int appends a signed value as a zigzag varint section; -1 sentinels cost
// one byte.
func (e *Encoder) Int(x int) { e.buf = binary.AppendVarint(e.buf, int64(x)) }

// Int64 appends a signed 64-bit zigzag varint section.
func (e *Encoder) Int64(x int64) { e.buf = binary.AppendVarint(e.buf, x) }

// Bool appends a boolean as a one-byte section.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte string section.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Ints appends a length-prefixed sequence of zigzag varints.
func (e *Encoder) Ints(xs []int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(xs)))
	for _, x := range xs {
		e.buf = binary.AppendVarint(e.buf, int64(x))
	}
}

// Len returns the number of bytes encoded so far, excluding the trailer.
func (e *Encoder) Len() int { return len(e.buf) }

// Finish seals and returns the image. Framed images get the CRC32-C
// trailer; raw blobs are returned as-is. The Encoder must not be used
// after Finish.
func (e *Encoder) Finish() []byte {
	if !e.framed {
		return e.buf
	}
	return binary.LittleEndian.AppendUint32(e.buf, Checksum(e.buf))
}

// Decoder reads one image section by section. Errors are sticky: after
// the first failure every read returns the zero value and Err reports the
// typed *CorruptError.
type Decoder struct {
	magic string
	buf   []byte // sections only (magic and trailer stripped)
	base  int    // offset of buf[0] in the original image
	pos   int
	err   error
}

// NewDecoder verifies the magic string and CRC32-C trailer of a framed
// image and returns a Decoder over its sections. The returned error, if
// non-nil, is a *CorruptError.
func NewDecoder(data []byte, magic string) (*Decoder, error) {
	if len(data) < len(magic)+4 {
		return nil, &CorruptError{Magic: magic, Offset: len(data), Reason: "image shorter than magic and checksum"}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &CorruptError{Magic: magic, Offset: 0, Reason: "bad magic"}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), Checksum(body); got != want {
		return nil, &CorruptError{Magic: magic, Offset: len(body), Reason: fmt.Sprintf("checksum mismatch: got %#x want %#x", got, want)}
	}
	return &Decoder{magic: magic, buf: body[len(magic):], base: len(magic)}, nil
}

// NewRawDecoder returns a Decoder over an unframed section blob produced
// by NewRawEncoder (integrity is the enclosing image's responsibility).
func NewRawDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// fail latches the first error.
func (d *Decoder) fail(reason string) {
	if d.err == nil {
		d.err = &CorruptError{Magic: d.magic, Offset: d.base + d.pos, Reason: reason}
	}
}

// Uvarint reads an unsigned varint section.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.pos += n
	return x
}

// Int reads a signed zigzag varint section.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Int64 reads a signed 64-bit zigzag varint section.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.pos += n
	return x
}

// Bool reads a one-byte boolean section; any value other than 0 or 1 is
// malformed.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated bool")
		return false
	}
	b := d.buf[d.pos]
	if b > 1 {
		d.fail("malformed bool")
		return false
	}
	d.pos++
	return b == 1
}

// Bytes reads a length-prefixed byte string section. The returned slice
// aliases the decoder's input. Lengths exceeding the bytes actually
// present fail without allocating.
func (d *Decoder) Bytes() []byte {
	ln := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if ln > uint64(len(d.buf)-d.pos) {
		d.fail(fmt.Sprintf("byte section length %d exceeds %d remaining", ln, len(d.buf)-d.pos))
		return nil
	}
	b := d.buf[d.pos : d.pos+int(ln)]
	d.pos += int(ln)
	return b
}

// Ints reads a length-prefixed sequence of zigzag varints. Each element
// occupies at least one byte, so the count is clamped against the
// remaining input before allocation.
func (d *Decoder) Ints() []int {
	ln := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if ln > uint64(len(d.buf)-d.pos) {
		d.fail(fmt.Sprintf("int sequence length %d exceeds %d remaining bytes", ln, len(d.buf)-d.pos))
		return nil
	}
	xs := make([]int, ln)
	for i := range xs {
		xs[i] = d.Int()
		if d.err != nil {
			return nil
		}
	}
	return xs
}

// Remaining returns the number of section bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Err returns the sticky decode error, a *CorruptError or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the sticky error if any, and otherwise flags unconsumed
// trailing bytes — a structurally valid image with extra sections is
// still the wrong shape for its consumer.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		d.fail(fmt.Sprintf("%d trailing bytes after final section", len(d.buf)-d.pos))
	}
	return d.err
}

// WriteFileAtomic durably replaces path with data: write to a temp file
// in the same directory, fsync, rename over path, then fsync the
// directory so the rename itself survives a crash. Readers never observe
// a partial file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that renames and removals inside it are
// durable. Platforms that refuse to fsync directories are tolerated: the
// contents were already synced, only crash-ordering of the rename is
// weakened.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
