// Package binfmt is the one binary format behind the serving protocol
// (internal/wire) and the durable snapshots and WAL (internal/persist):
// the frame header, the CRC-32C seal, and a bounded field encoder and
// decoder. docs/protocol.md ("Frame header") describes the layout.
//
// A frame is a 14-byte header and a payload (integers little-endian):
//
//	offset 0:  magic (4 bytes, one per Format)
//	offset 4:  format version (1 byte)
//	offset 5:  frame kind (1 byte)
//	offset 6:  payload length (uint32)
//	offset 10: CRC-32C (Castagnoli) of the payload (uint32)
//	offset 14: payload
//
// The header's last eight bytes, length and CRC, are the seal; a WAL
// record is a seal and its payload, with no magic, version or kind.
//
// Payload fields are encoding/binary varints (uvarint unsigned, zig-zag
// varint signed); strings, byte blobs and counted slices lead with a
// uvarint count. A Decoder never trusts a count further than the bytes
// actually present: every element costs at least one byte, so a count
// beyond the remaining payload is corrupt, and rejecting it before
// allocating keeps every decode's allocation O(input) on arbitrary
// bytes.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// HeaderLen is the size of a frame header.
	HeaderLen = 14
	// SealLen is the size of a seal: the payload's length and CRC-32C.
	SealLen = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format is one frame family: its magic and version, and the sentinels
// its errors wrap, so errors.Is tells the families apart.
//
//spatialvet:errclass
type Format struct {
	Magic   [4]byte
	Version byte
	// ErrCorrupt is wrapped by every structural failure: a bad magic, a
	// length disagreeing with the bytes present, a CRC mismatch, or a
	// payload field violating its bounds.
	ErrCorrupt error
	// ErrVersion is wrapped by a header of another version.
	ErrVersion error
}

// Corruptf returns an error wrapping f.ErrCorrupt.
func (f *Format) Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{f.ErrCorrupt}, args...)...)
}

// Append appends one frame of the given kind to dst: the header, the
// payload enc appends (nil for an empty one), then the payload's length
// and CRC in the header.
func (f *Format) Append(dst []byte, kind byte, enc func([]byte) []byte) []byte {
	dst = append(dst, f.Magic[0], f.Magic[1], f.Magic[2], f.Magic[3], f.Version, kind)
	return AppendSealed(dst, enc)
}

// AppendSealed appends a seal and the payload enc appends, then fills
// the seal in.
func AppendSealed(dst []byte, enc func([]byte) []byte) []byte {
	start := len(dst) + SealLen
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	if enc != nil {
		dst = enc(dst)
	}
	payload := dst[start:]
	binary.LittleEndian.PutUint32(dst[start-SealLen:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start-4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Unseal returns the payload the seal at the front of data covers. ok
// is false when data is shorter than the seal claims or the payload
// fails its CRC.
func Unseal(data []byte) (payload []byte, ok bool) {
	if len(data) < SealLen {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-SealLen) {
		return nil, false
	}
	payload = data[SealLen : SealLen+int(n)]
	return payload, sealed(data[:SealLen], payload)
}

func sealed(seal, payload []byte) bool {
	return crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(seal[4:])
}

// Header validates a frame header's magic and version and returns its
// kind and declared payload length. Check verifies the payload once it
// is read.
func (f *Format) Header(h *[HeaderLen]byte) (kind byte, n int, err error) {
	if [4]byte(h[:4]) != f.Magic {
		return 0, 0, f.Corruptf("bad magic %q", h[:4])
	}
	if h[4] != f.Version {
		return 0, 0, fmt.Errorf("%w: version %d (supported: %d)", f.ErrVersion, h[4], f.Version)
	}
	return h[5], int(binary.LittleEndian.Uint32(h[6:])), nil
}

// Check verifies payload against the CRC in its frame header.
func (f *Format) Check(h *[HeaderLen]byte, payload []byte) error {
	if !sealed(h[HeaderLen-SealLen:], payload) {
		return f.Corruptf("payload CRC mismatch")
	}
	return nil
}

// Open validates a whole frame — header, exact length, CRC — and
// returns its kind and payload (aliasing frame).
func (f *Format) Open(frame []byte) (kind byte, payload []byte, err error) {
	if len(frame) < HeaderLen {
		return 0, nil, f.Corruptf("truncated header: %d bytes", len(frame))
	}
	h := (*[HeaderLen]byte)(frame)
	kind, n, err := f.Header(h)
	if err != nil {
		return 0, nil, err
	}
	payload = frame[HeaderLen:]
	if n != len(payload) {
		return 0, nil, f.Corruptf("payload length %d disagrees with %d bytes present", n, len(payload))
	}
	if err := f.Check(h, payload); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

// AppendStr appends s with its length.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b with its length.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendInts appends vs as a count and one varint each.
func AppendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// AppendInt64s appends vs as a count and one varint each.
func AppendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// AppendFloat64 appends v's IEEE 754 bits as eight bytes.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Decoder reads a payload's fields in order, validating every count
// against the bytes remaining before allocating. It keeps the first
// error and returns zero values after it, so a decode reads its fields
// without checking each and checks once, at Finish.
//
//spatialvet:errclass
type Decoder struct {
	buf     []byte
	err     error
	corrupt error
}

// Decoder returns a decoder over payload whose errors wrap f.ErrCorrupt.
func (f *Format) Decoder(payload []byte) Decoder {
	return Decoder{buf: payload, corrupt: f.ErrCorrupt}
}

// Failf records a failure wrapping the format's ErrCorrupt, unless an
// earlier one is already recorded, and stops further reads.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.corrupt}, args...)...)
	}
	d.buf = nil
}

// Finish returns the first failure, or an error if any payload bytes
// remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.Failf("%d trailing payload bytes", len(d.buf))
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.Failf("truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Failf("truncated or overlong uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Failf("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Float64 reads eight bytes of IEEE 754 bits.
func (d *Decoder) Float64() float64 {
	if len(d.buf) < 8 {
		d.Failf("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Count reads an element count no larger than the bytes remaining.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Failf("count %d exceeds %d remaining bytes", n, len(d.buf))
		return 0
	}
	return int(n)
}

// Str reads a string of at most limit bytes.
func (d *Decoder) Str(limit int) string {
	n := d.Uvarint()
	if n > uint64(limit) || n > uint64(len(d.buf)) {
		d.Failf("string length %d exceeds its limit %d or the %d remaining bytes", n, limit, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Bytes reads a counted byte blob into dst, reusing its capacity (nil
// for a fresh allocation).
func (d *Decoder) Bytes(dst []byte) []byte {
	n := d.Count()
	dst = append(dst[:0], d.buf[:n]...)
	d.buf = d.buf[n:]
	return dst
}

// Ints reads a counted varint slice into dst, reusing its capacity.
func (d *Decoder) Ints(dst []int) []int {
	dst = Grow(dst, d.Count())
	for i := range dst {
		dst[i] = int(d.Varint())
	}
	return dst
}

// Int64s reads a counted varint slice into dst, reusing its capacity.
func (d *Decoder) Int64s(dst []int64) []int64 {
	dst = Grow(dst, d.Count())
	for i := range dst {
		dst[i] = d.Varint()
	}
	return dst
}

// Grow returns s resized to n elements, reallocating only when its
// capacity falls short. Size n with Count, which bounds it by the
// payload.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
