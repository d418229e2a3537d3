package sparsify

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

// The oracle-grid encodings cross the same trust boundaries as the
// spanner states they hold (see spanner's hostile_test.go, whose
// wireBudget this one repeats: a decoded grid adds a cell pointer, a
// column hash and an empty state per ≥ 88-byte cell block).

func wireBudget(n int) uint64 { return 64<<10 + 128*uint64(n) }

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

func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// gridCfg is an oracle-grid configuration as both encodings write it.
func gridCfg(k, j, t uint64) []uint64 { return []uint64{k, j, t, math.Float64bits(0.25), 0, 5} }

// oldGrid is a grid encoded in the retired 0xd15c_000b layout: no
// sample header between the phase and the oracle configuration.
func oldGrid() []byte {
	g, _ := NewGrid(4, EstimateConfig{K: 1, J: 1, T: 1, Seed: 5}) // NewGrid cannot fail
	enc, _ := g.MarshalBinary()                                   // nor can a fresh grid's encoding
	old := append(words(0xd15c_000b), enc[8:24]...)
	return append(old, enc[56:]...)
}

// hostileGrids are Grid encodings with no cells behind their header,
// and live encodings of a one-vertex stream: each made the decoder lay
// out its grid before reading a cell. A sample header is K, Z, H, seed.
func hostileGrids() (grids, lives map[string][]byte) {
	grid := func(n uint64, samples, cfg []uint64) []byte {
		return words(append(append([]uint64{wire.TagGrid, n, 0}, samples...), cfg...)...)
	}
	live := func(samples, cfg []uint64) []byte {
		return words(append(append([]uint64{wire.TagSparsifyLive, 1}, samples...), cfg...)...)
	}
	none, one := []uint64{0, 0, 0, 0}, []uint64{2, 1, 1, 3}
	return map[string][]byte{
			"16×16 cells of n=100":        grid(100, none, gridCfg(2, 16, 16)),
			"Z=4097":                      grid(100, []uint64{2, 1<<12 + 1, 1, 3}, gridCfg(2, 1, 1)),
			"H=4097":                      grid(100, []uint64{2, 1, 1<<12 + 1, 3}, gridCfg(2, 1, 1)),
			"64×64 samples of n=100":      grid(100, []uint64{2, 64, 64, 3}, gridCfg(2, 1, 1)),
			"samples K=0":                 grid(100, []uint64{0, 1, 1, 3}, gridCfg(2, 1, 1)),
			"old 0xd15c_000b layout":      oldGrid(),
			"old 0xd15c_000b 16×16 cells": words(append([]uint64{0xd15c_000b, 100, 0}, gridCfg(2, 16, 16)...)...),
		}, map[string][]byte{
			"grid K=1024":   live(one, gridCfg(1024, 1, 1)),
			"64×64 cells":   live(one, gridCfg(1, 64, 64)),
			"64×64 samples": live([]uint64{2, 64, 64, 3}, gridCfg(1, 1, 1)),
			"Z=0":           live(none, gridCfg(1, 1, 1)),
		}
}

// TestGridHostileHeaders: each is refused with the typed error, within
// wireBudget.
func TestGridHostileHeaders(t *testing.T) {
	grids, lives := hostileGrids()
	check := func(blobs map[string][]byte, decode func([]byte) error) {
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
	check(grids, func(b []byte) error { return new(Grid).UnmarshalBinary(b) })
	one := stream.NewMemoryStream(1)
	check(lives, func(b []byte) error { _, err := RestoreLive(one, b); return err })
}

// FuzzGridUnmarshal: arbitrary bytes never panic the decoder or make it
// allocate beyond wireBudget; whatever decodes re-encodes to the same
// bytes and ingests an update in its pass, as a dynnet worker does.
func FuzzGridUnmarshal(f *testing.F) {
	st := stream.WithChurn(graph.ConnectedGNP(20, 0.25, 3), 30, 4)
	g, err := NewGrid(st.N(), EstimateConfig{K: 2, J: 2, T: 2, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(g *Grid) {
		enc, err := g.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-3])
	}
	if err := st.Replay(g.Pass1Update); err != nil {
		f.Fatal(err)
	}
	seed(g) // pass 1
	if err := g.EndPass1(); err != nil {
		f.Fatal(err)
	}
	seed(g) // post-EndPass1
	fork, err := g.ForkPass2()
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Replay(fork.Pass2Update); err != nil {
		f.Fatal(err)
	}
	seed(fork) // the pass-2 prototype after ingest
	sg := newGrid(st.N(), Config{K: 1, Z: 2, H: 2, Seed: 6, Estimate: EstimateConfig{J: 1, T: 2}}.withDefaults(st.N()), true)
	if err := st.Replay(sg.Pass1Update); err != nil {
		f.Fatal(err)
	}
	seed(sg) // a sparsifier's grid: sample columns, pass 1
	if err := sg.EndPass1(); err != nil {
		f.Fatal(err)
	}
	if err := st.Replay(sg.Pass2Update); err != nil {
		f.Fatal(err)
	}
	seed(sg) // and pass 2
	grids, _ := hostileGrids()
	for _, blob := range grids {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		alloc, err := decodeAlloc(data, g.UnmarshalBinary)
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if back, err := g.MarshalBinary(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
		if g.n > 1 {
			batch := []stream.Update{{U: 0, V: g.n - 1, Delta: 1}}
			if g.phase == 0 {
				g.Pass1AddBatch(batch)
			} else {
				g.Pass2AddBatch(batch)
			}
		}
	})
}

// FuzzRestoreLive: the live sparsifier decoder over a fixed base
// stream, under FuzzGridUnmarshal's bound; whatever restores re-encodes
// to the same bytes.
func FuzzRestoreLive(f *testing.F) {
	st := stream.WithChurn(graph.ConnectedGNP(12, 0.3, 6), 10, 7)
	ls, err := StartLive(st, Config{K: 1, Z: 2, Seed: 8, Estimate: EstimateConfig{K: 1, J: 2, T: 2, Seed: 9}})
	if err != nil {
		f.Fatal(err)
	}
	seed := func() {
		enc, err := ls.MarshalLive()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
	}
	seed() // nothing applied
	if err := ls.ApplyLive([]stream.Update{{U: 1, V: 9, Delta: 1, W: 1}, {U: 2, V: 3, Delta: 1, W: 1}}); err != nil {
		f.Fatal(err)
	}
	seed()
	_, lives := hostileGrids()
	for _, blob := range lives {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Live
		alloc, err := decodeAlloc(data, func(b []byte) (err error) { got, err = RestoreLive(st, b); return err })
		if alloc > wireBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), alloc, wireBudget(len(data)))
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if back, err := got.MarshalLive(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
	})
}

// TestGridForeignTableSeedRefused: a grid's cells refuse a pass-2 table
// block whose seed is not its slot's, as a lone spanner state does.
func TestGridForeignTableSeedRefused(t *testing.T) {
	ups := slotGridUpdates()
	g := closedGrid(t, ups)
	if err := g.Pass2AddBatch(ups); err != nil {
		t.Fatal(err)
	}
	enc, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Grid).UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(enc, words(wire.TagKeyed)) // a table block's header: tag, seed, n, rows, cells
	if at < 0 {
		t.Fatal("no pass-2 table block in the encoding")
	}
	enc[at+8] ^= 1
	if err := new(Grid).UnmarshalBinary(enc); !errors.Is(err, errCorrupt) {
		t.Fatalf("a table block with a flipped seed bit: %v, want errCorrupt", err)
	}
}
