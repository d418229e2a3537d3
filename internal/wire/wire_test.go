package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: corrupt")

// fakeSketch is a Sketch and a Decoder whose encoding is its one byte.
type fakeSketch struct{ v byte }

func (s *fakeSketch) IsZero() bool                   { return s.v == 0 }
func (s *fakeSketch) MarshalBinary() ([]byte, error) { return []byte{s.v}, nil }
func (s *fakeSketch) UnmarshalBinary(b []byte) error {
	if len(b) != 1 {
		return errors.New("fake: want one byte")
	}
	s.v = b[0]
	return nil
}

func TestRoundTrip(t *testing.T) {
	w := NewWriter([]byte{0xaa}) // appends after what the buffer holds
	w.U64(1 << 63)
	w.Int(-5)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Uvarint(300)
	w.Byte(7)
	w.Block([]byte("blk"))
	w.Ints([]int{-1, 0, 1 << 40})
	if err := w.SketchBlock(&fakeSketch{}); err != nil {
		t.Fatal(err)
	}
	if err := w.SketchBlock(&fakeSketch{v: 9}); err != nil {
		t.Fatal(err)
	}
	w.Raw([]byte("end"))

	r := NewReader(w.Bytes(), errTest)
	if r.Byte() != 0xaa || r.U64() != 1<<63 || r.Int() != -5 || r.F64() != math.Inf(-1) || !r.Bool() ||
		r.Uvarint() != 300 || r.Byte() != 7 || string(r.Block()) != "blk" {
		t.Fatal("scalar fields differ")
	}
	if got := r.Ints(3); len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 1<<40 {
		t.Fatalf("Ints = %v", got)
	}
	called := false
	r.SketchInto(func() Decoder { called = true; return &fakeSketch{} })
	if called {
		t.Error("a suppressed block created its state")
	}
	var dst fakeSketch
	r.SketchInto(func() Decoder { return &dst })
	if dst.v != 9 || string(r.Bytes(3)) != "end" {
		t.Fatal("sketch block or raw tail differs")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: every malformed input records an error wrapping
// the Reader's sentinel, and the error sticks.
func TestReaderRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(*Reader)
	}{
		"non-minimal varint":   {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":      {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"short word":           {[]byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		"bool of 2":            {word(2), func(r *Reader) { r.Bool() }},
		"block past the end":   {word(9), func(r *Reader) { r.Block() }},
		"Ints over its bound":  {ints(1, 2, 3), func(r *Reader) { r.Ints(2) }},
		"Ints past the end":    {word(1 << 40), func(r *Reader) { r.Ints(math.MaxInt) }},
		"trailing bytes":       {[]byte{1, 2}, func(r *Reader) { r.Byte() }},
		"present zero sketch":  {[]byte{1, 0}, func(r *Reader) { r.SketchInto(func() Decoder { return &fakeSketch{} }) }},
		"nested decoder fails": {[]byte{2, 1, 1}, func(r *Reader) { r.SketchInto(func() Decoder { return &fakeSketch{} }) }},
	} {
		r := NewReader(tc.data, errTest)
		tc.read(r)
		if err := r.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: %v, want the sentinel", name, err)
		}
	}
}

func TestReaderStickyAfterShortRead(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, errTest)
	if r.U64() == 0 || r.Err() != nil {
		t.Fatal("first word rejected")
	}
	if r.U64() != 0 || !errors.Is(r.Err(), errTest) {
		t.Fatal("short read not recorded")
	}
	first := r.Err()
	// Two bytes were left; after the failure nothing is.
	if r.Len() != 0 || r.Byte() != 0 || r.Uvarint() != 0 || r.Bytes(0) != nil || r.Err() != first {
		t.Fatal("reads after a failure returned data or replaced the first error")
	}
	r.Fail(errors.New("later cause"))
	if r.Err() != first {
		t.Fatal("Fail replaced the first error")
	}
}

func word(v uint64) []byte {
	w := &Writer{}
	w.U64(v)
	return w.Bytes()
}

func ints(v ...int) []byte {
	w := &Writer{}
	w.Ints(v)
	return w.Bytes()
}
