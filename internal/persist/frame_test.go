package persist

import (
	"encoding/binary"

	"spatialtree/internal/binfmt"
)

// Builders for hand-made payloads: a snapshot frame around arbitrary
// payload bytes, and an encoder for the fields a test forges.

func frame(kind byte, payload []byte) []byte {
	return format.Append(nil, kind, func(b []byte) []byte { return append(b, payload...) })
}

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) parents(ps []int) { e.buf = binfmt.AppendInts(e.buf, ps) }

// recordHeaderLen is a WAL record's header: its seal.
const recordHeaderLen = binfmt.SealLen
