// Package wire implements the payload format workers exchange: sets of
// activation rows (global neuron ids plus batch-width float32 values),
// serialized compactly and zlib-compressed, and split into size-limited
// byte strings using the paper's number-of-nonzeros heuristic (§III-C1).
//
// The queue channel must respect the pub-sub service's 256 KB message
// limit; the object channel has no practical size limit but uses the same
// encoding for a single object per (source, target, layer). The chunker
// aims to maximise utilisation of the allowed message size while grouping
// and compressing rows only once, as the paper's send path does.
package wire

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Encode/Decode sit on the serving replay hot path (every query stages an
// input payload and every run emits a result payload), and a cold
// zlib.Writer allocates ~380 KB of deflate state per call. The pools below
// recycle compressor and decompressor state across calls; Reset fully
// reinitialises the deflate stream, so pooled and fresh writers produce
// byte-identical output and simulated payload sizes are unaffected.
var (
	zlibWriters = sync.Pool{New: func() any { return zlib.NewWriter(io.Discard) }}
	zlibReaders sync.Pool // holds io.ReadCloser values implementing zlib.Resetter
	bodyBufs    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

const (
	magic      = 0xF5
	flagZlib   = 0x01
	headerSize = 2 + 4 + 4 // magic+flags, batch, nrows
)

// RowSet is a set of activation rows in transit: row i has global neuron id
// IDs[i] and Batch values at Vals[i*Batch : (i+1)*Batch].
type RowSet struct {
	Batch int
	IDs   []int32
	Vals  []float32
}

// NewRowSet returns an empty RowSet for the given batch width.
func NewRowSet(batch int) *RowSet {
	return &RowSet{Batch: batch}
}

// NewRowSetCap returns an empty RowSet for the given batch width with
// capacity for rows rows, so hot paths that know the row count up front
// avoid repeated append growth (at batch 4096 each regrowth copies the
// whole value backing array).
func NewRowSetCap(batch, rows int) *RowSet {
	return &RowSet{
		Batch: batch,
		IDs:   make([]int32, 0, rows),
		Vals:  make([]float32, 0, rows*batch),
	}
}

// Add appends one row. vals must have Batch elements.
func (rs *RowSet) Add(id int32, vals []float32) {
	if len(vals) != rs.Batch {
		panic(fmt.Sprintf("wire: row of %d values, batch is %d", len(vals), rs.Batch))
	}
	rs.IDs = append(rs.IDs, id)
	rs.Vals = append(rs.Vals, vals...)
}

// Len returns the number of rows.
func (rs *RowSet) Len() int { return len(rs.IDs) }

// Row returns the values of the i-th row.
func (rs *RowSet) Row(i int) []float32 {
	return rs.Vals[i*rs.Batch : (i+1)*rs.Batch]
}

// RawBytes returns the uncompressed serialized size.
func (rs *RowSet) RawBytes() int64 {
	return headerSize + int64(len(rs.IDs))*4 + int64(len(rs.Vals))*4
}

// NNZ returns the number of nonzero values across all rows — the paper's
// chunking heuristic input.
func (rs *RowSet) NNZ() int64 {
	var n int64
	for _, v := range rs.Vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Slice returns a RowSet view of rows [lo, hi) (shared storage).
func (rs *RowSet) Slice(lo, hi int) *RowSet {
	return &RowSet{
		Batch: rs.Batch,
		IDs:   rs.IDs[lo:hi],
		Vals:  rs.Vals[lo*rs.Batch : hi*rs.Batch],
	}
}

// Encode serializes the row set: a 2-byte magic/flags preamble, then batch
// width, row count, row ids and values (little-endian). With compress set,
// everything after the preamble is zlib-compressed.
func Encode(rs *RowSet, compress bool) ([]byte, error) {
	if !compress {
		// Build the payload in place: at batch 4096 the body is megabytes,
		// and an encode-then-append would copy all of it a second time.
		out := make([]byte, 2+8+len(rs.IDs)*4+len(rs.Vals)*4)
		out[0], out[1] = magic, 0
		fillBody(out[2:], rs)
		return out, nil
	}
	body := make([]byte, 8+len(rs.IDs)*4+len(rs.Vals)*4)
	fillBody(body, rs)
	var buf bytes.Buffer
	buf.WriteByte(magic)
	buf.WriteByte(flagZlib)
	zw := zlibWriters.Get().(*zlib.Writer)
	zw.Reset(&buf)
	if _, err := zw.Write(body); err != nil {
		return nil, fmt.Errorf("wire: compressing payload: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("wire: closing compressor: %w", err)
	}
	zlibWriters.Put(zw)
	return buf.Bytes(), nil
}

// fillBody serializes the row set into body, which must be exactly
// 8 + 4*len(IDs) + 4*len(Vals) bytes.
func fillBody(body []byte, rs *RowSet) {
	binary.LittleEndian.PutUint32(body[0:4], uint32(rs.Batch))
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(rs.IDs)))
	off := 8
	for _, id := range rs.IDs {
		binary.LittleEndian.PutUint32(body[off:], uint32(id))
		off += 4
	}
	for _, v := range rs.Vals {
		binary.LittleEndian.PutUint32(body[off:], math.Float32bits(v))
		off += 4
	}
}

// Decode parses a payload produced by Encode.
func Decode(b []byte) (*RowSet, error) {
	if len(b) < 2 || b[0] != magic {
		return nil, fmt.Errorf("wire: bad payload preamble")
	}
	body := b[2:]
	var scratch *bytes.Buffer
	if b[1]&flagZlib != 0 {
		var zr io.ReadCloser
		if v := zlibReaders.Get(); v != nil {
			zr = v.(io.ReadCloser)
			if err := zr.(zlib.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
				return nil, fmt.Errorf("wire: opening decompressor: %w", err)
			}
		} else {
			var err error
			zr, err = zlib.NewReader(bytes.NewReader(body))
			if err != nil {
				return nil, fmt.Errorf("wire: opening decompressor: %w", err)
			}
		}
		scratch = bodyBufs.Get().(*bytes.Buffer)
		scratch.Reset()
		if _, err := scratch.ReadFrom(zr); err != nil {
			bodyBufs.Put(scratch)
			return nil, fmt.Errorf("wire: decompressing payload: %w", err)
		}
		if err := zr.Close(); err != nil {
			bodyBufs.Put(scratch)
			return nil, fmt.Errorf("wire: closing decompressor: %w", err)
		}
		zlibReaders.Put(zr)
		body = scratch.Bytes()
	}
	defer func() {
		if scratch != nil {
			bodyBufs.Put(scratch)
		}
	}()
	if len(body) < 8 {
		return nil, fmt.Errorf("wire: payload body too short (%d bytes)", len(body))
	}
	batch := int(binary.LittleEndian.Uint32(body[0:4]))
	n := int(binary.LittleEndian.Uint32(body[4:8]))
	// The body must be exactly 8 + 4n + 4n*batch bytes. The header is
	// untrusted, so check it without forming n*batch, which can overflow
	// and pass a wrapped length check.
	vals := len(body) - 8 - 4*n
	if vals < 0 || (n == 0 && vals != 0) || (n > 0 && (vals%(4*n) != 0 || vals/(4*n) != batch)) {
		return nil, fmt.Errorf("wire: payload body is %d bytes, which does not fit batch=%d rows=%d",
			len(body), batch, n)
	}
	rs := &RowSet{
		Batch: batch,
		IDs:   make([]int32, n),
		Vals:  make([]float32, n*batch),
	}
	off := 8
	for i := range rs.IDs {
		rs.IDs[i] = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	for i := range rs.Vals {
		rs.Vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	return rs, nil
}

// assumedCompressionRatio is the planning estimate of compressed-to-raw
// size used by the NNZ heuristic. Nonzero float32 activations compress
// modestly; zero runs compress almost completely, which is why the
// heuristic counts nonzeros rather than raw bytes.
const assumedCompressionRatio = 0.6

// EstimateChunks returns the paper's NNZ-heuristic estimate of how many
// byte strings of at most limit bytes a row set will need.
func EstimateChunks(rs *RowSet, limit int, compress bool) int {
	if rs.Len() == 0 {
		return 1
	}
	per := estRowBytes(rs, compress)
	rows := (limit - headerSize) / per
	if rows < 1 {
		rows = 1
	}
	return (rs.Len() + rows - 1) / rows
}

func estRowBytes(rs *RowSet, compress bool) int {
	nnz := rs.NNZ()
	if nnz == 0 {
		nnz = 1
	}
	// Estimated contribution of one row: its id plus its share of
	// nonzero values (zeros are assumed compressed away).
	valBytes := float64(nnz*4) / float64(rs.Len())
	per := 4.0 + valBytes
	if compress {
		per = 4 + valBytes*assumedCompressionRatio
	}
	return int(per) + 1
}

// EncodeChunks serializes the row set into one or more payloads, each at
// most limit bytes. The initial split uses the NNZ heuristic so rows are
// grouped and compressed only once in the common case; any chunk whose
// encoded form still exceeds the limit is re-split recursively. An empty
// row set yields a single empty payload (the "nothing to send, but here is
// my completion marker" case of Algorithm 1).
func EncodeChunks(rs *RowSet, limit int, compress bool) ([][]byte, error) {
	if limit <= headerSize+8 {
		return nil, fmt.Errorf("wire: chunk limit %d too small", limit)
	}
	if rs.Len() == 0 {
		p, err := Encode(rs, compress)
		if err != nil {
			return nil, err
		}
		return [][]byte{p}, nil
	}
	rowsPer := (limit - headerSize) / estRowBytes(rs, compress)
	if rowsPer < 1 {
		rowsPer = 1
	}
	var out [][]byte
	var encode func(lo, hi int) error
	encode = func(lo, hi int) error {
		chunk := rs.Slice(lo, hi)
		p, err := Encode(chunk, compress)
		if err != nil {
			return err
		}
		if len(p) > limit && hi-lo > 1 {
			mid := (lo + hi) / 2
			if err := encode(lo, mid); err != nil {
				return err
			}
			return encode(mid, hi)
		}
		if len(p) > limit {
			return fmt.Errorf("wire: single row encodes to %d bytes, over the %d limit", len(p), limit)
		}
		out = append(out, p)
		return nil
	}
	for lo := 0; lo < rs.Len(); lo += rowsPer {
		hi := lo + rowsPer
		if hi > rs.Len() {
			hi = rs.Len()
		}
		if err := encode(lo, hi); err != nil {
			return nil, err
		}
	}
	return out, nil
}
