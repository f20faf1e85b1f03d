package persist

import (
	"encoding/binary"

	"spatialtree/internal/binfmt"
)

// A WAL record is a binfmt seal — payload length and CRC-32C, both
// little-endian uint32 — and its payload:
//
//	byte    record type (1 = insert, 2 = delete, 3 = fence)
//	uvarint epoch
//	varint  arg    (insert: parent; delete: leaf; fence: 0)
//	varint  result (insert: new vertex id; delete: moved id; fence: 0)
//
// Records are written with a single Write call each, so a crash can
// only ever produce a torn tail: a final frame whose length prefix,
// payload, or CRC is incomplete. Readers treat the first invalid frame
// as the end of the log and report everything before it — the
// "surviving prefix" the crash-recovery property test pins down.
const maxRecordPayload = 64 // generous bound; real payloads are < 32 bytes

// RecordType discriminates WAL records.
type RecordType byte

// WAL record types. Insert and Delete mirror the two DynEngine
// mutations; Fence marks a segment boundary and carries the epoch the
// log had reached when the segment was created, letting replay verify
// continuity across rotation and compaction.
const (
	RecInsert RecordType = 1
	RecDelete RecordType = 2
	RecFence  RecordType = 3
)

// Record is one WAL entry. For mutations, Epoch is the shard epoch
// after applying the record — epochs advance by exactly one per applied
// mutation, which is what lets replay detect gaps.
type Record struct {
	Type   RecordType
	Epoch  uint64
	Arg    int
	Result int
}

// appendRecord appends the sealed encoding of r to buf.
func appendRecord(buf []byte, r Record) []byte {
	return binfmt.AppendSealed(buf, func(b []byte) []byte {
		b = append(b, byte(r.Type))
		b = binary.AppendUvarint(b, r.Epoch)
		b = binary.AppendVarint(b, int64(r.Arg))
		return binary.AppendVarint(b, int64(r.Result))
	})
}

// scanRecords decodes consecutive records from data. It stops at the
// first record that is truncated or fails its CRC and returns the
// records before it, each record's starting byte offset, and the offset
// where the valid prefix ends — the offset a recovering writer
// truncates to before appending. A scan that consumes all of data
// returns valid == len(data).
func scanRecords(data []byte) (recs []Record, starts []int, valid int) {
	off := 0
	for {
		payload, ok := binfmt.Unseal(data[off:])
		if !ok || len(payload) == 0 || len(payload) > maxRecordPayload {
			return recs, starts, off
		}
		r, ok := decodeRecordPayload(payload)
		if !ok {
			return recs, starts, off
		}
		recs = append(recs, r)
		starts = append(starts, off)
		off += binfmt.SealLen + len(payload)
	}
}

func decodeRecordPayload(p []byte) (Record, bool) {
	d := format.Decoder(p)
	r := Record{Type: RecordType(d.Byte()), Epoch: d.Uvarint(), Arg: int(d.Varint()), Result: int(d.Varint())}
	if r.Type != RecInsert && r.Type != RecDelete && r.Type != RecFence {
		d.Failf("unknown record type %d", r.Type)
	}
	return r, d.Finish() == nil
}
