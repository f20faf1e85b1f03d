// Package boundedalloc exercises the decoded-length taint analyzer:
// counts read from input bytes must be bound-checked before they size
// an allocation; checked counts and internally-bounded decoders are
// clean.
package boundedalloc

import "encoding/binary"

// BrokenDirect allocates straight from the decoded count: the classic
// length-prefix bomb.
func BrokenDirect(p []byte) []byte {
	n, _ := binary.Uvarint(p)
	return make([]byte, n) // want "allocation sized by n, decoded from input bytes"
}

// CleanChecked compares the count against the payload first.
func CleanChecked(p []byte) []byte {
	n, _ := binary.Uvarint(p)
	if n > uint64(len(p)) {
		return nil
	}
	return make([]byte, n)
}

// grow sizes an allocation from its parameter; bounding is the
// caller's job, so a tainted argument taints the allocation.
func grow(n int) []int64 { return make([]int64, n) }

// BrokenHelper funnels an unchecked count through the alloc helper.
func BrokenHelper(p []byte) []int64 {
	n, _ := binary.Uvarint(p)
	return grow(int(n)) // want "sizes an allocation in boundedalloc.grow"
}

// readLen decodes without checking: an unbounded source, so callers
// inherit the taint through the function summary.
func readLen(p []byte) uint64 {
	n, _ := binary.Uvarint(p)
	return n
}

// BrokenSummary taints through the module source summary.
func BrokenSummary(p []byte) []byte {
	m := readLen(p)
	return make([]byte, m) // want "allocation sized by m, decoded from input bytes"
}

// count decodes and bounds internally — the sanctioned decoder.count
// pattern; its result carries no taint.
func count(p []byte, max int) (int, bool) {
	n, _ := binary.Uvarint(p)
	if n > uint64(max) {
		return 0, false
	}
	return int(n), true
}

// CleanBoundedSource trusts the internally-bounded decoder.
func CleanBoundedSource(p []byte) []byte {
	m, ok := count(p, len(p))
	if !ok {
		return nil
	}
	return make([]byte, m)
}

// decoder is the shape of the shared field decoder: uvarint is a raw
// source, count bounds what it reads by the bytes remaining.
type decoder struct{ buf []byte }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.buf = nil
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		return 0
	}
	return int(n)
}

// growTo sizes an allocation from its parameter, for any element type.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BrokenGenericGrow sizes a generic allocation by a raw read.
func BrokenGenericGrow(d *decoder) []int64 {
	return growTo([]int64(nil), int(d.uvarint())) // want "sizes an allocation in boundedalloc.growTo"
}

// CleanGenericGrow sizes it by the bounded count.
func CleanGenericGrow(d *decoder) []int64 {
	return growTo([]int64(nil), d.count())
}
