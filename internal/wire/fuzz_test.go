package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// overflowHeader is a 10-byte raw payload whose header claims
// batch=0xFFFFFFFF rows=0x40000000: 8 + 4n + 4n*batch wraps to 10 bytes
// in int arithmetic.
func overflowHeader() []byte {
	b := []byte{magic, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[2:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(b[6:], 0x40000000)
	return b
}

func TestDecodeRejectsOverflowingHeader(t *testing.T) {
	if rs, err := Decode(overflowHeader()); err == nil {
		t.Fatalf("decoded %d rows of batch %d from a 10-byte payload", rs.Len(), rs.Batch)
	}
}

// FuzzDecode feeds arbitrary payloads to Decode: none may panic, and
// whatever decodes must re-encode to an equivalent payload.
func FuzzDecode(f *testing.F) {
	rs := NewRowSet(3)
	rs.Add(7, []float32{1, 0, -2.5})
	rs.Add(9, []float32{0, 0, 4})
	for _, compress := range []bool{false, true} {
		b, err := Encode(rs, compress)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(overflowHeader())
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			return
		}
		raw, err := Encode(got, false)
		if err != nil {
			t.Fatal(err)
		}
		if b[1] == 0 && !bytes.Equal(raw, b) {
			t.Fatalf("raw payload %x re-encodes as %x", b, raw)
		}
		again, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if raw2, _ := Encode(again, false); !bytes.Equal(raw2, raw) {
			t.Fatalf("decode/encode is not a fixed point: %x vs %x", raw2, raw)
		}
	})
}
