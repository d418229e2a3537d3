package spanner

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// Bytes that cross a trust boundary — dynnet ASSIGN and SKETCH frames,
// checkpoints: the decoders answer any input with a typed error or a
// usable state, and allocate at most wireBudget while doing so.

// wireBudget is what decoding n input bytes may allocate: 64 KB of
// derived hashes and runtime slack, plus 128 per input byte. That is 32
// times the sketch package's 4×, because a decoded TwoPass is linear in
// its input but not tightly: a suppressed vertex-sketch block is one
// byte standing for a slot pointer and its share of two slice headers
// (54× measured with one edge level), and an untouched pass-2 table is
// one byte standing for a nil slot (2.3× measured for a fork at
// n = 1000, where a ~240 B table header per slot read 28×).
func wireBudget(n int) uint64 { return 64<<10 + 128*uint64(n) }

// decodeAlloc runs decode and reports its error and what it allocated:
// the least of three readings, since the counter is process-wide and
// what the decoder allocates repeats while noise does not.
func decodeAlloc(data []byte, decode func([]byte) error) (alloc uint64, err error) {
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

// twoPassHeader is a TwoPass encoding up to its vertex-sketch blocks.
func twoPassHeader(n, phase uint64, cfg Config, sketches bool) *wire.Writer {
	w := &wire.Writer{}
	w.U64(wire.TagTwoPass)
	w.U64(n)
	w.U64(phase)
	writeConfig(w, cfg)
	w.Bool(sketches)
	return w
}

func additiveHeader(n uint64, cfg AdditiveConfig) []byte {
	w := &wire.Writer{}
	w.U64(wire.TagAdditive)
	w.U64(n)
	writeAdditiveConfig(w, cfg)
	return w.Bytes()
}

// hostileTwoPass are encodings a peer or a damaged checkpoint can hand
// the TwoPass decoder. Each was accepted, or allocated far beyond
// wireBudget before failing, before the decoder was bounded.
func hostileTwoPass() map[string][]byte {
	small := Config{K: 2, Budget: 8, TableFactor: 1}
	out := map[string][]byte{
		"n=2^16, no body":          twoPassHeader(1<<16, 0, small, true).Bytes(),
		"K=4096":                   twoPassHeader(8, 0, Config{K: 4096, Budget: 8, TableFactor: 1}, true).Bytes(),
		"Levels=2^16":              twoPassHeader(8, 0, Config{K: 2, Budget: 8, TableFactor: 1, Levels: 1 << 16}, true).Bytes(),
		"fork of n=2^16, no body":  twoPassHeader(1<<16, 1, small, false).Bytes(),
		"phase 0 without sketches": twoPassHeader(8, 0, small, false).Bytes(),
		"K=0 (not resolved)":       twoPassHeader(8, 0, Config{Budget: 8, TableFactor: 1}, false).Bytes(),
	}
	// Budget 2^40 over an otherwise valid fresh n=2 state: ingest into
	// it would allocate a 100 TB sketch per touched slot.
	w := twoPassHeader(2, 0, Config{K: 2, Budget: 1 << 40, TableFactor: 1}, true)
	w.Raw(make([]byte, 2*5)) // n·(k−1)·levels suppressed blocks
	out["Budget=2^40"] = w.Bytes()
	// A present block holding the zero sketch: the encoder suppresses
	// those, so the blob does not round-trip.
	w = twoPassHeader(2, 0, small, true)
	zero, _ := sketch.NewSketchBFamily(hashing.Mix(0, 0x5e, 1, 0), 8, sketch.SketchConfig{}).New().MarshalBinary()
	w.Uvarint(uint64(len(zero)))
	w.Raw(zero)
	w.Raw(make([]byte, 9))
	out["zero sketch block"] = w.Bytes()
	// A fork whose vertex lists a non-terminal copy: there is no table
	// for it, so pass-2 ingest on a larger n would index a missing row.
	w = twoPassHeader(1, 1, Config{K: 1, Budget: 8, TableFactor: 1}, false)
	for _, v := range []uint64{1, 0, 0, ^uint64(0), 0, 0, 0} { // one copy: u 0, level 0, parent −1, witness, not terminal
		w.U64(v)
	}
	w.Ints([]int{0}) // members
	w.Ints([]int{0}) // terminalsOf[0]
	w.U64(0)         // tables
	w.U64(0)         // augmented edges
	out["terminal list names a non-terminal copy"] = w.Bytes()
	return out
}

func hostileAdditive() map[string][]byte {
	// untouched is an additive encoding up to its forest block: n
	// vertices with every sketch block suppressed and degree 0.
	untouched := func(n int, cfg AdditiveConfig) []byte {
		b := additiveHeader(uint64(n), cfg)
		return append(b, make([]byte, n*(10+log2(n)))...)
	}
	wide := AdditiveConfig{D: 64, DegreeFactor: 64, CenterFactor: 2}
	forest, _ := agm.New(1, 2, agm.Config{}).MarshalBinary()
	w := wire.NewWriter(untouched(64, AdditiveConfig{D: 1, DegreeFactor: 1, CenterFactor: 2}))
	w.Block(forest)
	return map[string][]byte{
		"n=2^10, no body":   additiveHeader(1<<10, AdditiveConfig{D: 3, DegreeFactor: 1, CenterFactor: 2}),
		"D=2^14":            additiveHeader(2, AdditiveConfig{D: 1 << 14, DegreeFactor: 1, CenterFactor: 2}),
		"DegreeFactor=4096": additiveHeader(2, AdditiveConfig{D: 1, DegreeFactor: 4096, CenterFactor: 2}),
		// Every bound holds one at a time; the neighborhood sketches they
		// size together (2·64·64·7+4 ≈ 57k keys) would be ~400 MB if
		// laid out before the missing forest block is found.
		"n=D=64, DegreeFactor=64, no forest": untouched(64, wide),
		"DegreeFactor=2^20":                  untouched(2, AdditiveConfig{D: 1, DegreeFactor: 1 << 20, CenterFactor: 2}),
		"forest of another n":                w.Bytes(),
	}
}

// TestHostileHeaders: each hostile encoding is refused with the typed
// error, within wireBudget.
func TestHostileHeaders(t *testing.T) {
	check := func(t *testing.T, blobs map[string][]byte, decode func([]byte) error) {
		for name, blob := range blobs {
			alloc, err := decodeAlloc(blob, decode)
			if !errors.Is(err, errCorrupt) {
				t.Errorf("%s: %v, want errCorrupt", name, err)
			}
			if alloc > wireBudget(len(blob)) {
				t.Errorf("%s: %d bytes allocated %d (budget %d)", name, len(blob), alloc, wireBudget(len(blob)))
			}
		}
	}
	t.Run("twopass", func(t *testing.T) {
		check(t, hostileTwoPass(), func(b []byte) error { return new(TwoPass).UnmarshalBinary(b) })
	})
	t.Run("additive", func(t *testing.T) {
		check(t, hostileAdditive(), func(b []byte) error { return new(Additive).UnmarshalBinary(b) })
	})
}

// FuzzTwoPassUnmarshal: arbitrary bytes never panic the decoder or make
// it allocate beyond wireBudget; whatever decodes re-encodes to the
// same bytes and ingests an update in its pass, as a dynnet worker
// does with a prototype.
func FuzzTwoPassUnmarshal(f *testing.F) {
	st := stream.WithChurn(graph.ConnectedGNP(24, 0.2, 7), 40, 8)
	tp := NewTwoPass(st.N(), Config{K: 2, Seed: 9, CollectAugmented: true})
	add := func(s *TwoPass, pass func(*TwoPass, []stream.Update) error) {
		if err := stream.ReplayBatches(st, 0, func(b []stream.Update) error { return pass(s, b) }); err != nil {
			f.Fatal(err)
		}
	}
	seed := func(s *TwoPass) {
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
	}
	seed(tp) // fresh
	add(tp, (*TwoPass).Pass1AddBatch)
	seed(tp) // pass 1
	if err := tp.EndPass1(); err != nil {
		f.Fatal(err)
	}
	seed(tp) // post-EndPass1
	fork, err := tp.ForkPass2()
	if err != nil {
		f.Fatal(err)
	}
	add(fork, (*TwoPass).Pass2AddBatch)
	seed(fork) // the pass-2 prototype after ingest
	for _, blob := range hostileTwoPass() {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s TwoPass
		alloc, err := decodeAlloc(data, s.UnmarshalBinary)
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if back, err := s.MarshalBinary(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
		if s.n > 1 {
			batch := []stream.Update{{U: 0, V: s.n - 1, Delta: 1}, {U: s.n / 2, V: 0, Delta: -1}}
			if s.phase == 0 {
				s.Pass1AddBatch(batch)
			} else {
				s.Pass2AddBatch(batch)
			}
		}
	})
}

// FuzzAdditiveUnmarshal: the Additive decoder under FuzzTwoPassUnmarshal's
// bound. Its forest block is an AGM encoding, canonical by content rather
// than by bytes (a sampler blob holding zeros re-encodes suppressed), so
// the round trip is checked one step on: the re-encoding decodes and
// re-encodes to itself. A decoded state ingests a batch.
func FuzzAdditiveUnmarshal(f *testing.F) {
	st := stream.WithChurn(graph.ConnectedGNP(20, 0.2, 11), 30, 12)
	for _, f0 := range []bool{false, true} {
		a := NewAdditive(st.N(), AdditiveConfig{D: 2, Seed: 13, UseF0Degree: f0})
		if err := stream.ReplayBatches(st, 0, a.AddBatch); err != nil {
			f.Fatal(err)
		}
		enc, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
	}
	for _, blob := range hostileAdditive() {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Additive
		alloc, err := decodeAlloc(data, a.UnmarshalBinary)
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		enc, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again Additive
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoding of an accepted blob rejected: %v", err)
		}
		if back, _ := again.MarshalBinary(); !bytes.Equal(back, enc) {
			t.Fatal("accepted encoding does not round-trip")
		}
		if a.n > 1 {
			if err := a.AddBatch([]stream.Update{{U: 0, V: a.n - 1, Delta: 1}, {U: a.n / 2, V: 0, Delta: -1}}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzRestoreLive: the live two-pass decoder over a fixed base stream,
// under FuzzTwoPassUnmarshal's bound; whatever restores re-encodes to
// the same bytes.
func FuzzRestoreLive(f *testing.F) {
	st := stream.WithChurn(graph.ConnectedGNP(16, 0.25, 14), 20, 15)
	tp := NewTwoPass(st.N(), Config{K: 2, Seed: 16})
	if err := tp.StartLive(st); err != nil {
		f.Fatal(err)
	}
	seed := func() {
		enc, err := tp.MarshalLive()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
	}
	seed() // nothing applied
	if err := tp.ApplyLive([]stream.Update{{U: 1, V: 9, Delta: 1, W: 1}, {U: 2, V: 3, Delta: -1, W: 2.5}}); err != nil {
		f.Fatal(err)
	}
	seed()
	w := &wire.Writer{} // an empty base and a log claiming 2^40 records
	w.U64(wire.TagTwoPassLive)
	w.Block(nil)
	w.U64(1 << 40)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s TwoPass
		alloc, err := decodeAlloc(data, func(b []byte) error { return s.RestoreLive(st, b) })
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if back, err := s.MarshalLive(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
	})
}

// TestForeignTableSeedRefused: a phase-1 encoding whose touched pass-2
// table block carries another seed or vertex count than its slot was
// decoded with the foreign hashes, and a later MergePass2 failed with
// "merging incompatible keyed tables". The decoder now refuses it.
func TestForeignTableSeedRefused(t *testing.T) {
	for _, k := range []int{2, 3} {
		tp := afterPass2(t, emptiedStream(t, 90, uint64(40+k)), Config{K: k, Seed: 77})
		enc, err := tp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var table []byte
		for _, row := range tp.tables {
			for _, tab := range row {
				if table == nil && !tab.IsZero() {
					if table, err = tab.MarshalBinary(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		at := bytes.Index(enc, table)
		if table == nil || at < 0 {
			t.Fatalf("K=%d: no touched table block in the encoding", k)
		}
		// The block's header words: tag, seed, n, rows, cells.
		for _, c := range []struct {
			field string
			word  int
			bit   uint
		}{{"seed", 1, 0}, {"seed", 1, 40}, {"n", 2, 0}} {
			bad := bytes.Clone(enc)
			bad[at+8*c.word+int(c.bit/8)] ^= 1 << (c.bit % 8)
			if err := new(TwoPass).UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
				t.Errorf("K=%d, table %s bit %d flipped: %v, want errCorrupt", k, c.field, c.bit, err)
			}
		}
	}
}
