package model

import (
	"bytes"
	"testing"

	"fsdinference/internal/sparse"
)

// FuzzDecodeCSR feeds arbitrary blobs to DecodeCSR: none may panic, and
// whatever decodes must re-encode to the same bytes.
func FuzzDecodeCSR(f *testing.F) {
	m, err := sparse.NewCSR(3, 4, []sparse.Triplet{{Row: 0, Col: 3, Val: 1.5}, {Row: 2, Col: 0, Val: -2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeCSR(m))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCSR(b)
		if err != nil {
			return
		}
		if got := EncodeCSR(c); !bytes.Equal(got, b) {
			t.Fatalf("blob %x re-encodes as %x", b, got)
		}
	})
}
