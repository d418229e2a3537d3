// Package wire is the byte codec every dynstream encoding is written
// in: the sketch states servers ship to a coordinator, the live states a
// checkpoint holds, and the dynnet payloads. A Writer appends
// little-endian u64 words, minimal uvarints, u64-length-prefixed blocks
// and zero-suppressed sketch blocks; a Reader reads them back front to
// back with a sticky error, so a decoder checks Err once per section
// before it allocates from what it read.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The tag words that open each encoding. Only these decode; the retired
// values are never reused: 0xd15c_0002 and 0xd15c_0003 (the dense v1
// L0Sampler and AGM layouts, superseded by 0x0102/0x0103) and
// 0xd15c_0006 and 0xd15c_0007 (the v1 TwoPass and Additive layouts,
// superseded by 0x0106/0x0107), and 0xd15c_000b (the Grid layout
// without sample columns, superseded by 0x010b).
const (
	TagSketchB      uint64 = 0xd15c_0001 // sketch.SketchB
	TagKeyed        uint64 = 0xd15c_0004 // sketch.KeyedEdgeSketch
	TagF0           uint64 = 0xd15c_0005 // sketch.F0
	TagKConn        uint64 = 0xd15c_0008 // agm.KConnectivity
	TagBip          uint64 = 0xd15c_0009 // agm.Bipartiteness
	TagMSF          uint64 = 0xd15c_000a // agm.MSF
	TagL0Sampler    uint64 = 0xd15c_0102 // sketch.L0Sampler
	TagAGM          uint64 = 0xd15c_0103 // agm.Sketch
	TagTwoPass      uint64 = 0xd15c_0106 // spanner.TwoPass
	TagAdditive     uint64 = 0xd15c_0107 // spanner.Additive
	TagGrid         uint64 = 0xd15c_010b // sparsify.Grid
	TagTwoPassLive  uint64 = 0xd15c_0206 // spanner.TwoPass live state
	TagSparsifyLive uint64 = 0xd15c_020b // sparsify.Live
)

// Writer appends an encoding to a byte slice. The zero Writer starts
// an empty one.
type Writer struct{ b []byte }

// NewWriter returns a Writer that appends to buf.
func NewWriter(buf []byte) *Writer { return &Writer{b: buf} }

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.b }

// U64 writes a fixed-width little-endian word.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Int writes v as the word of its int64 value.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 writes the word of v's IEEE 754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a word, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Uvarint writes v as a minimal uvarint.
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Byte writes one byte.
func (w *Writer) Byte(v byte) { w.b = append(w.b, v) }

// Raw writes b as it is.
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// Block writes b prefixed by its length as a word.
func (w *Writer) Block(b []byte) {
	w.U64(uint64(len(b)))
	w.b = append(w.b, b...)
}

// Ints writes s prefixed by its length, every value a word.
func (w *Writer) Ints(s []int) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.Int(v)
	}
}

// Sketch is a linear sketch state SketchBlock can write.
type Sketch interface {
	IsZero() bool
	MarshalBinary() ([]byte, error)
}

// SketchBlock writes s's encoding prefixed by its length as a uvarint,
// with zero suppression: a zero state (never touched, or canceled back
// to zero) is the single byte 0. Equal linear content therefore encodes
// to equal bytes.
func (w *Writer) SketchBlock(s Sketch) error {
	if s.IsZero() {
		w.Uvarint(0)
		return nil
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	w.Uvarint(uint64(len(enc)))
	w.b = append(w.b, enc...)
	return nil
}

// Reader reads an encoding front to back. The first short or malformed
// read records an error wrapping the sentinel the Reader was made with
// and empties the input, so every later read returns a zero value.
type Reader struct {
	b        []byte
	err      error
	sentinel error
}

// NewReader returns a Reader over data whose errors wrap sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{b: data, sentinel: sentinel}
}

// Err returns the first error recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail records a malformed encoding, unless an error is recorded
// already; cause, when not nil, is the nested decoder's error.
func (r *Reader) Fail(cause error) {
	if r.err == nil {
		r.err = r.sentinel
		if cause != nil {
			r.err = fmt.Errorf("%w: %v", r.sentinel, cause)
		}
	}
	r.b = nil
}

// Done records trailing bytes as an error and returns Err.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// U64 reads a fixed-width little-endian word.
func (r *Reader) U64() uint64 {
	if b := r.b; len(b) >= 8 {
		r.b = b[8:]
		return binary.LittleEndian.Uint64(b)
	}
	// Fail(nil), spelled out so that U64, which runs once per sketch
	// word, stays within the inlining budget.
	if r.err == nil {
		r.err = r.sentinel
	}
	r.b = nil
	return 0
}

// Int reads a word as an int64 value.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// F64 reads a word as IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a word that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U64()
	if v > 1 {
		r.Fail(nil)
	}
	return v == 1
}

// Uvarint reads a uvarint, which must be minimally encoded, as Writer
// writes it.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.Fail(nil)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.Fail(nil)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bytes reads the next n bytes; n past the end of the input is an error.
// The result aliases the input.
func (r *Reader) Bytes(n uint64) []byte {
	if uint64(len(r.b)) < n {
		r.Fail(nil)
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Block reads a block Writer.Block wrote.
func (r *Reader) Block() []byte { return r.Bytes(r.U64()) }

// Ints reads a list Writer.Ints wrote, of at most max values.
func (r *Reader) Ints(max int) []int {
	ln := r.U64()
	if ln > uint64(max) || ln > uint64(len(r.b))/8 {
		r.Fail(nil)
		return nil
	}
	out := make([]int, ln)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// SketchBlock reads a block Writer.SketchBlock wrote; nil is a
// suppressed block, the zero state.
func (r *Reader) SketchBlock() []byte {
	ln := r.Uvarint()
	if ln == 0 {
		return nil
	}
	return r.Bytes(ln)
}

// Decoder is a linear sketch state SketchInto can decode into.
type Decoder interface {
	UnmarshalBinary([]byte) error
	IsZero() bool
}

// SketchInto decodes the next sketch block into the zero state at
// returns. at runs only for a present block, so a state created on first
// touch stays uncreated for a suppressed one; a present block must not
// encode zero (SketchBlock would have suppressed it).
func (r *Reader) SketchInto(at func() Decoder) {
	enc := r.SketchBlock()
	if enc == nil {
		return
	}
	dst := at()
	if err := dst.UnmarshalBinary(enc); err != nil || dst.IsZero() {
		r.Fail(err)
	}
}
