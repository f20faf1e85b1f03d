package binfmt

import (
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: corrupt")

var testFormat = Format{Magic: [4]byte{'T', 'E', 'S', 'T'}, Version: 1, ErrCorrupt: errTest}

// TestDecoderKeepsFirstError: after a failed read every read returns
// its zero value and consumes nothing, and Finish reports the first
// failure, wrapping the format's sentinel.
func TestDecoderKeepsFirstError(t *testing.T) {
	d := testFormat.Decoder([]byte{0x01, 0x80}) // a byte, then a truncated uvarint
	if b := d.Byte(); b != 1 {
		t.Fatalf("Byte = %d, want 1", b)
	}
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("truncated Uvarint = %d, want 0", v)
	}
	d.Failf("a later failure")
	if d.Byte() != 0 || d.Varint() != 0 || d.Float64() != 0 || d.Count() != 0 ||
		d.Str(8) != "" || d.Bytes(nil) != nil || d.Ints(nil) != nil || d.Int64s(nil) != nil {
		t.Fatal("a read after the failure returned a non-zero value")
	}
	err := d.Finish()
	if !errors.Is(err, errTest) || !strings.Contains(err.Error(), "uvarint") {
		t.Fatalf("Finish = %v, want the uvarint failure wrapping the sentinel", err)
	}
}

// TestDecoderFinishRejectsTrailingBytes: a payload must be read to its
// last byte.
func TestDecoderFinishRejectsTrailingBytes(t *testing.T) {
	d := testFormat.Decoder(AppendStr(nil, "ab"))
	if s := d.Str(1); s != "" {
		t.Fatalf("Str over its limit = %q", s)
	}
	if err := d.Finish(); !errors.Is(err, errTest) {
		t.Fatalf("string over its limit: %v", err)
	}
	d = testFormat.Decoder([]byte{0x01, 0x02})
	d.Byte()
	if err := d.Finish(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Finish with a byte left = %v", err)
	}
}
