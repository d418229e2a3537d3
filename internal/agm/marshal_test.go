package agm

import (
	"encoding/binary"
	"errors"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

func TestAGMMarshalRoundTrip(t *testing.T) {
	g := graph.ConnectedGNP(20, 0.2, 1)
	s := New(2, g.N(), Config{})
	_ = stream.FromGraph(g, 3).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	forest, err := back.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("round-tripped sketch lost connectivity")
	}
}

func TestAGMMergeAcrossShards(t *testing.T) {
	// Two shards, cross-shard deletion, coordinator merge — the
	// introduction's distributed protocol, with one shard shipped as
	// bytes.
	const n = 12
	g := graph.Cycle(n)
	a := New(5, n, Config{})
	b := New(5, n, Config{})
	// Shard A gets even-indexed edges plus an edge later deleted in B.
	for i, e := range g.Edges() {
		if i%2 == 0 {
			a.AddEdge(e.U, e.V, 1)
		} else {
			b.AddEdge(e.U, e.V, 1)
		}
	}
	a.AddEdge(0, 5, 1)  // noise edge inserted on A
	b.AddEdge(0, 5, -1) // ... deleted on B
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var remote Sketch
	if err := remote.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(&remote); err != nil {
		t.Fatal(err)
	}
	forest, err := a.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(n)
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("merged forest contains phantom edge (%d,%d)", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("merged sketch lost connectivity")
	}
}

func TestAGMMergeIncompatible(t *testing.T) {
	a := New(1, 10, Config{})
	b := New(2, 10, Config{})
	if err := a.Merge(b); err == nil {
		t.Error("different seeds merged")
	}
	c := New(1, 11, Config{})
	if err := a.Merge(c); err == nil {
		t.Error("different sizes merged")
	}
}

func TestAGMUnmarshalCorrupt(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary([]byte{0}); err == nil {
		t.Error("garbage accepted")
	}
	good := New(3, 6, Config{})
	enc, _ := good.MarshalBinary()
	if err := s.UnmarshalBinary(enc[:len(enc)/2]); err == nil {
		t.Error("truncated accepted")
	}
	// A 22-byte header that used to allocate a 2^24 × 256 sampler grid
	// before reading a single sampler.
	huge := binary.LittleEndian.AppendUint64(nil, wire.TagAGM)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	for _, v := range []uint64{1 << 24, 256, 4} {
		huge = binary.AppendUvarint(huge, v)
	}
	if err := s.UnmarshalBinary(huge); !errors.Is(err, errCorrupt) {
		t.Errorf("oversized geometry: %v, want errCorrupt", err)
	}
	// perLevel is a wire bound too (cell indices are 16 bits): one past
	// it is corrupt in both layouts (v1 is rejected by its tag), not a
	// panic in the family constructor. The blobs are long enough to pass
	// the length check.
	for _, v2 := range []bool{true, false} {
		tag, num := uint64(0xd15c_0003), binary.LittleEndian.AppendUint64
		if v2 {
			tag, num = wire.TagAGM, binary.AppendUvarint
		}
		blob := binary.LittleEndian.AppendUint64(nil, tag)
		blob = binary.LittleEndian.AppendUint64(blob, 1)
		blob = num(num(num(blob, 2), 2), sketch.MaxL0PerLevel+1)
		blob = append(blob, make([]byte, 64)...)
		if err := s.UnmarshalBinary(blob); !errors.Is(err, errCorrupt) {
			t.Errorf("v2=%v perLevel %d: %v, want errCorrupt", v2, sketch.MaxL0PerLevel+1, err)
		}
	}
}
