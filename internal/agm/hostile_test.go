package agm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// wireBudget is what decoding n input bytes may allocate: 64 KB of
// runtime slack plus 2.5 KB per input byte. A suppressed sampler is one
// byte standing for its level-0 slot (at most maxArenaPerByte) and its
// 64-byte sampler header; on one vertex it also stands for its round's
// family — hash banks and level shapes, about 2.3 KB.
func wireBudget(n int) uint64 { return 64<<10 + 2560*uint64(n) }

// decodeAlloc runs decode on data and reports its error and what it
// allocated: the least of three readings, since the counter is
// process-wide and what the decoder allocates repeats while noise does
// not.
func decodeAlloc(decode func([]byte) error, data []byte) (alloc uint64, err error) {
	alloc = ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decode(data)
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	return alloc, err
}

// agmHeader is a sketch encoding with every sampler suppressed: the
// smallest blob a header can claim its grid with.
func agmHeader(n, rounds, perLevel uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, wire.TagAGM)
	b = binary.LittleEndian.AppendUint64(b, 1)
	for _, v := range []uint64{n, rounds, perLevel} {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, make([]byte, n*rounds)...)
}

// agmV1 is s in the retired dense v1 layout: all-u64 header, a u64
// length per sampler, no zero suppression.
func agmV1(s *Sketch) []byte {
	w := &wire.Writer{}
	for _, v := range []uint64{0xd15c_0003, s.seed, uint64(s.n), uint64(s.rounds), uint64(s.perLvl)} {
		w.U64(v)
	}
	for r := 0; r < s.rounds; r++ {
		for v := 0; v < s.n; v++ {
			enc, _ := s.at(r, v).MarshalBinary() // never fails
			w.Block(enc)
		}
	}
	return w.Bytes()
}

// hostileAGM are encodings a peer or a damaged checkpoint can hand the
// decoder. The first two were accepted, allocating 227 MB and 454 MB,
// before the arena was bounded by the input; the v1 layout was decoded
// until its tag was retired.
func hostileAGM() map[string][]byte {
	return map[string][]byte{
		"n=1, rounds=256, perLevel=8192 (277 B)":  agmHeader(1, 256, 8192),
		"n=64, rounds=64, perLevel=1024 (4116 B)": agmHeader(64, 64, 1024),
		"perLevel=6, every sampler suppressed":    agmHeader(64, 8, 6),
		"perLevel=0":                              agmHeader(4, 4, 0),
		"v1 layout":                               agmV1(New(9, 4, Config{Rounds: 2})),
	}
}

// hostileApps are application-sketch headers that claim more sketch
// blocks than their input holds. They were accepted as far as allocating
// 2 097 152 B (KConnectivity, k = 2^16) and 532 480 B (MSF, maxClass =
// 2^16) before the count was checked against the input.
func hostileApps() map[string][]byte {
	words := func(v ...uint64) []byte {
		w := &wire.Writer{}
		for _, x := range v {
			w.U64(x)
		}
		return w.Bytes()
	}
	return map[string][]byte{
		"KConnectivity k=2^16 (24 B)": words(wire.TagKConn, 1<<16, 1<<24),
		"MSF maxClass=2^16 (32 B)":    words(wire.TagMSF, 1<<24, math.Float64bits(0.5), 1<<16),
		"Bipartiteness, no blocks":    words(wire.TagBip, 1<<24),
	}
}

// decodeApp decodes data as whichever application sketch its tag names
// (as KConnectivity when it names none) and returns the decoded state.
func decodeApp(data []byte) (interface{ MarshalBinary() ([]byte, error) }, error) {
	var tag uint64
	if len(data) >= 8 {
		tag = binary.LittleEndian.Uint64(data)
	}
	switch tag {
	case wire.TagBip:
		b := &Bipartiteness{}
		return b, b.UnmarshalBinary(data)
	case wire.TagMSF:
		m := &MSF{}
		return m, m.UnmarshalBinary(data)
	default:
		kc := &KConnectivity{}
		return kc, kc.UnmarshalBinary(data)
	}
}

func decodeAppErr(data []byte) error {
	_, err := decodeApp(data)
	return err
}

// TestAGMHostileHeaders: each hostile encoding is refused with the
// typed error, within wireBudget, and an application header within 64 KB
// whatever it claims; at perLevel 5, the largest whose suppressed
// samplers fit the arena bound, the same grid decodes.
func TestAGMHostileHeaders(t *testing.T) {
	for name, blob := range hostileAGM() {
		var s Sketch
		alloc, err := decodeAlloc(s.UnmarshalBinary, blob)
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: %v, want errCorrupt", name, err)
		}
		if alloc > wireBudget(len(blob)) {
			t.Errorf("%s: %d bytes allocated %d (budget %d)", name, len(blob), alloc, wireBudget(len(blob)))
		}
	}
	for name, blob := range hostileApps() {
		alloc, err := decodeAlloc(decodeAppErr, blob)
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: %v, want errCorrupt", name, err)
		}
		if alloc > 64<<10 {
			t.Errorf("%s: allocated %d (budget 64 KB)", name, alloc)
		}
	}
	var s Sketch
	if err := s.UnmarshalBinary(agmHeader(64, 8, 5)); err != nil {
		t.Errorf("perLevel=5, every sampler suppressed: %v", err)
	}
}

// FuzzAGMUnmarshal: arbitrary bytes never panic the decoder or make it
// allocate beyond wireBudget, and every error is errCorrupt. Whatever
// decodes re-encodes to bytes that decode and re-encode to themselves
// (the encoding is canonical by content, so a sampler blob holding
// zeros re-encodes differently once), and the decoded
// state ingests a batch to the same bytes at one worker and at two.
func FuzzAGMUnmarshal(f *testing.F) {
	const n = 12
	s := New(3, n, Config{})
	seed := func(s *Sketch) {
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-3])
	}
	seed(s) // fresh
	var ups []stream.Update
	_ = stream.WithChurn(graph.Cycle(n), 30, 4).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	})
	s.AddBatch(ups)
	seed(s)
	for _, blob := range hostileAGM() {
		f.Add(blob)
	}
	f.Add(agmHeader(64, 8, 5))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		alloc, err := decodeAlloc(s.UnmarshalBinary, data)
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		decode := func() *Sketch {
			var again Sketch
			if err := again.UnmarshalBinary(enc); err != nil {
				t.Fatalf("re-encoding of an accepted blob rejected: %v", err)
			}
			return &again
		}
		if back, _ := decode().MarshalBinary(); !bytes.Equal(back, enc) {
			t.Fatal("accepted encoding does not round-trip")
		}
		batch := make([]stream.Update, 64)
		for i := range batch {
			batch[i] = stream.Update{U: i % s.n, V: (7*i + 1) % s.n, Delta: []int{1, -1, 2}[i%3]}
		}
		one, two := decode(), decode()
		one.addBatch(batch, 1)
		two.addBatch(batch, 2)
		a, _ := one.MarshalBinary()
		b, _ := two.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("a decoded state ingests differently at two workers than at one")
		}
	})
}

// FuzzAppUnmarshal holds the KConnectivity, Bipartiteness and MSF
// decoders to FuzzAGMUnmarshal's property: no panic, allocation within
// wireBudget, and errCorrupt or an accepted state whose re-encoding
// decodes and re-encodes to itself.
func FuzzAppUnmarshal(f *testing.F) {
	const n = 10
	var ups []stream.Update
	_ = stream.WithChurn(graph.Cycle(n), 20, 5).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	})
	kc, bip, msf := NewKConnectivity(6, n, 2), NewBipartiteness(7, n), NewMSF(8, n, 4, 1)
	kc.AddBatch(ups)
	bip.AddBatch(ups)
	msf.AddBatch(ups)
	for _, m := range []interface{ MarshalBinary() ([]byte, error) }{kc, bip, msf} {
		enc, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
	}
	for _, blob := range hostileApps() {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc, err := decodeAlloc(decodeAppErr, data)
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		s, _ := decodeApp(data)
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeApp(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted blob rejected: %v", err)
		}
		if back, _ := again.MarshalBinary(); !bytes.Equal(back, enc) {
			t.Fatal("accepted encoding does not round-trip")
		}
	})
}
