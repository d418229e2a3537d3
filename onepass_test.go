package dynstream

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/sketch"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// The five single-pass states satisfy the one constraint onePass needs.
var (
	_ sketchState[*agm.Sketch]        = (*agm.Sketch)(nil)
	_ sketchState[*agm.KConnectivity] = (*agm.KConnectivity)(nil)
	_ sketchState[*agm.Bipartiteness] = (*agm.Bipartiteness)(nil)
	_ sketchState[*agm.MSF]           = (*agm.MSF)(nil)
	_ sketchState[*spanner.Additive]  = (*spanner.Additive)(nil)
)

// serialAdd feeds a state whose AddBatch cannot fail.
func serialAdd[S interface{ AddBatch([]Update) }](s S, b []Update) error {
	s.AddBatch(b)
	return nil
}

func ingestInto[S any](t *testing.T, src Source, s S, add func(S, []Update) error) {
	t.Helper()
	err := stream.ReplayBatches(src, 0, func(b []Update) error { return add(s, b) })
	if err != nil {
		t.Fatal(err)
	}
}

// shipMerge is the distributed pipeline on concrete states: every shard
// is ingested into its own worker state, marshalled, unmarshalled into
// an empty receiver, and merged into dst.
func shipMerge[S wireState](t *testing.T, shards []Stream, dst S, worker, empty func() S,
	add func(S, []Update) error, merge func(dst, src S) error) {
	t.Helper()
	for _, shard := range shards {
		w := worker()
		ingestInto(t, shard, w, add)
		enc, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got := empty()
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if err := merge(dst, got); err != nil {
			t.Fatal(err)
		}
	}
}

// decoded is a worker constructor that decodes a shipped prototype, as
// a dynnet worker does for pass 2 of the two-pass states.
func decoded[S wireState](t *testing.T, proto S, empty func() S) func() S {
	t.Helper()
	blob, err := proto.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return func() S {
		s := empty()
		if err := s.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestSketchViewsWirePipeline drives every sketch state through the
// same distributed pipeline — ingest two shards, marshal, unmarshal
// into a fresh state, merge — and checks the merged state against a
// serial one: by encoding for the five single-pass states, by final
// result for the two-pass states (both passes shipped, pass 2 from
// either prototype). (The name predates the removal of the Sketch view
// wrappers it first covered.)
func TestSketchViewsWirePipeline(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 1001)
	st := StreamWithChurn(g, 120, 1002)
	shards, err := stream.Split(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := st.N()

	t.Run("forest", func(t *testing.T) {
		mk := func() *ForestSketch { return NewForestSketch(1003, n, ForestConfig{}) }
		checkSinglePass(t, st, shards, mk, func() *ForestSketch { return new(ForestSketch) }, serialAdd[*ForestSketch])
	})
	t.Run("kconnectivity", func(t *testing.T) {
		mk := func() *KConnectivity { return NewKConnectivity(1004, n, 2) }
		checkSinglePass(t, st, shards, mk, func() *KConnectivity { return new(KConnectivity) }, serialAdd[*KConnectivity])
	})
	t.Run("bipartiteness", func(t *testing.T) {
		mk := func() *Bipartiteness { return NewBipartiteness(1005, n) }
		checkSinglePass(t, st, shards, mk, func() *Bipartiteness { return new(Bipartiteness) }, serialAdd[*Bipartiteness])
	})
	t.Run("msf", func(t *testing.T) {
		mk := func() *MSF { return NewMSF(1006, n, 8, 0.5) }
		checkSinglePass(t, st, shards, mk, func() *MSF { return new(MSF) }, serialAdd[*MSF])
	})
	t.Run("additive", func(t *testing.T) {
		mk := func() *AdditiveSpanner { return NewAdditiveSpanner(n, AdditiveConfig{D: 3, Seed: 1007}) }
		checkSinglePass(t, st, shards, mk, func() *AdditiveSpanner { return new(AdditiveSpanner) }, (*AdditiveSpanner).AddBatch)
	})

	// Pass 2 ships either prototype: the whole post-EndPass1 state, or
	// the tables-only ForkPass2 state the remote engine sends.
	protos := map[string]bool{"endpass1-proto": false, "fork-proto": true}
	t.Run("twopass", func(t *testing.T) {
		cfg := SpannerConfig{K: 2, Seed: 1008}
		want, err := Build(context.Background(), st, SpannerTarget{Config: cfg}, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		empty := func() *spanner.TwoPass { return new(spanner.TwoPass) }
		for name, fork := range protos {
			tp := spanner.NewTwoPass(n, cfg)
			shipMerge(t, shards, tp, func() *spanner.TwoPass { return spanner.NewTwoPass(n, cfg) }, empty,
				(*spanner.TwoPass).Pass1AddBatch, (*spanner.TwoPass).MergePass1)
			if err := tp.EndPass1(); err != nil {
				t.Fatal(err)
			}
			proto := tp
			if fork {
				if proto, err = tp.ForkPass2(); err != nil {
					t.Fatal(err)
				}
			}
			shipMerge(t, shards, tp, decoded(t, proto, empty), empty,
				(*spanner.TwoPass).Pass2AddBatch, (*spanner.TwoPass).MergePass2)
			got, err := tp.Finish()
			if err != nil {
				t.Fatal(err)
			}
			edgesEqual(t, "two-pass spanner, "+name, got.Spanner, want.Spanner)
		}
	})

	t.Run("grid", func(t *testing.T) {
		cfg := EstimateConfig{K: 1, J: 2, T: 4, Delta: 0.34, Seed: 1009}
		mk := func() *sparsify.Grid {
			g, err := sparsify.NewGrid(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		serial := mk()
		ingestInto(t, st, serial, (*sparsify.Grid).Pass1AddBatch)
		if err := serial.EndPass1(); err != nil {
			t.Fatal(err)
		}
		ingestInto(t, st, serial, (*sparsify.Grid).Pass2AddBatch)
		serialEnc, err := serial.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Finish()
		if err != nil {
			t.Fatal(err)
		}

		empty := func() *sparsify.Grid { return new(sparsify.Grid) }
		for name, fork := range protos {
			grid := mk()
			shipMerge(t, shards, grid, mk, empty, (*sparsify.Grid).Pass1AddBatch, (*sparsify.Grid).MergePass1)
			if err := grid.EndPass1(); err != nil {
				t.Fatal(err)
			}
			proto := grid
			if fork {
				if proto, err = grid.ForkPass2(); err != nil {
					t.Fatal(err)
				}
			}
			shipMerge(t, shards, grid, decoded(t, proto, empty), empty,
				(*sparsify.Grid).Pass2AddBatch, (*sparsify.Grid).MergePass2)
			if enc, err := grid.MarshalBinary(); err != nil || !bytes.Equal(enc, serialEnc) {
				t.Fatalf("%s: shipped-and-merged grid encodes differently from the serial one (err %v)", name, err)
			}
			got, err := grid.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if got.QExp(u, v) != want.QExp(u, v) {
						t.Fatalf("%s: QExp(%d, %d) = %d, serial %d", name, u, v, got.QExp(u, v), want.QExp(u, v))
					}
				}
			}
		}
	})
}

// checkSinglePass ships two shards into a fresh state and compares it,
// by encoding, with a state that ingested the whole stream.
func checkSinglePass[S interface {
	wireState
	Merge(S) error
}](t *testing.T, st Stream, shards []Stream, mk, empty func() S, add func(S, []Update) error) {
	t.Helper()
	serial := mk()
	ingestInto(t, st, serial, add)
	merged := mk()
	shipMerge(t, shards, merged, mk, empty, add, S.Merge)
	wireEqual(t, merged, serial)
}

func wireEqual[S wireState](t *testing.T, got, want S) {
	t.Helper()
	a, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("shipped-and-merged %T encodes differently from the serial one (%d vs %d bytes)", got, len(a), len(b))
	}
}

// TestOnePassTargets runs the five single-pass targets through every
// way onePass can run them and checks they agree: a serial Build, a
// Build at more workers, Open over a prefix plus Apply of the rest, and
// Checkpoint→Restore of that handle — compared by the state's encoding
// (by the decoded result for the additive spanner, whose result is not
// its state). The second input is long enough for the AGM kernel to
// split its chunks across workers, and its hub owns half the endpoint
// incidences, so one vertex range holds a single vertex. The shared
// adapter's typed rejections ride along: a Merge of another target's
// state type, a Restore of another target's checkpoint.
func TestOnePassTargets(t *testing.T) {
	g := graph.New(40)
	for i, e := range graph.ConnectedGNP(40, 0.1, 2811).Edges() {
		g.AddEdge(e.U, e.V, float64(1+i%8))
	}
	small := splitHalf(t, StreamWithChurn(g, 60, 2812))
	hub := splitHalf(t, hubStream(t, 256, 700, 2818))
	n := small.st.N()
	ctx := context.Background()

	// A forest handle's checkpoint is every other target's foreign
	// checkpoint; the forest target gets a bipartiteness one.
	ckpt := func(h interface{ Checkpoint(io.Writer) error }) []byte {
		var buf bytes.Buffer
		if err := h.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fh, err := Open(ctx, small.base, ForestTarget{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bh, err := Open(ctx, small.base, BipartitenessTarget{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	notForest := &foreign{ckpt(bh), NewBipartiteness(1, n)}
	forest := &foreign{ckpt(fh), NewForestSketch(1, n, ForestConfig{})}

	encoding := func(s wireState) string {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// Eight workers are eight goroutines only where GOMAXPROCS allows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	inputs := []onePassCase{
		{name: "small", in: small, workers: []int{3}, refuse: true},
		{name: "hub", in: hub, workers: []int{1, 2, 3, 8}},
	}
	t.Run("forest", func(t *testing.T) {
		for _, c := range inputs {
			checkOnePassTarget(t, c, ForestTarget{Seed: 2813}, notForest,
				func(s *ForestSketch) string { return encoding(s) })
		}
	})
	t.Run("kconnectivity", func(t *testing.T) {
		for _, c := range inputs {
			checkOnePassTarget(t, c, KConnectivityTarget{Seed: 2814, K: 2}, forest,
				func(s *KConnectivity) string { return encoding(s) })
		}
	})
	t.Run("bipartiteness", func(t *testing.T) {
		for _, c := range inputs {
			checkOnePassTarget(t, c, BipartitenessTarget{Seed: 2815}, forest,
				func(s *Bipartiteness) string { return encoding(s) })
		}
	})
	t.Run("msf", func(t *testing.T) {
		for _, c := range inputs {
			checkOnePassTarget(t, c, MSFTarget{Seed: 2816, WMax: 8, Gamma: 0.5}, forest,
				func(s *MSF) string { return encoding(s) })
		}
		// A live handle cannot scan for its weight bound: a later Apply
		// could exceed whatever the base stream held.
		if _, err := Open(ctx, small.base, MSFTarget{Seed: 2816}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Open(MSFTarget{WMax: 0}) = %v, want ErrBadConfig", err)
		}
	})
	t.Run("additive", func(t *testing.T) {
		for _, c := range inputs {
			checkOnePassTarget(t, c, AdditiveTarget{Config: AdditiveConfig{D: 3, Seed: 2817}}, forest,
				func(r *AdditiveResult) string {
					return fmt.Sprint(r.Spanner.Edges(), r.Centers, r.LowDegree, r.SpaceWords)
				})
		}
	})
}

// onePassCase is one input of TestOnePassTargets, the worker counts it
// runs at, and whether the foreign-state rejections run over it.
type onePassCase struct {
	name    string
	in      onePassInput
	workers []int
	refuse  bool
}

// onePassInput is a stream, and the same stream as a base to Open plus
// the rest to Apply.
type onePassInput struct {
	st, base *MemoryStream
	rest     []Update
}

func splitHalf(t *testing.T, st *MemoryStream) onePassInput {
	t.Helper()
	in := onePassInput{st: st, base: NewMemoryStream(st.N())}
	err := st.Replay(func(u Update) error {
		if in.base.Len() < st.Len()/2 {
			return in.base.Append(u)
		}
		in.rest = append(in.rest, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// hubStream is a star on n vertices, weights 1..8, followed by churn
// pairs that delete a spoke and insert it again: every update touches
// vertex 0, which so owns half of all endpoint incidences.
func hubStream(t *testing.T, n, churn int, seed uint64) *MemoryStream {
	t.Helper()
	st := NewMemoryStream(n)
	spoke := func(v, delta int) {
		if err := st.Append(Update{U: 0, V: v, Delta: delta, W: float64(1 + v%8)}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		spoke(v, 1)
	}
	rng := hashing.NewSplitMix64(seed)
	for i := 0; i < churn; i++ {
		v := 1 + rng.Intn(n-1)
		spoke(v, -1)
		spoke(v, 1)
	}
	return st
}

// foreign is what a handle must refuse: another target's checkpoint
// over the same base, and another target's state.
type foreign struct {
	ckpt  []byte
	state any
}

func checkOnePassTarget[R any](t *testing.T, c onePassCase, target Target[R], refuse *foreign, key func(R) string) {
	t.Helper()
	t.Run(c.name, func(t *testing.T) {
		ctx := context.Background()
		in := c.in
		serial, err := Build(ctx, in.st, target, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want := key(serial)
		var h *Handle[R]
		for _, w := range c.workers {
			built, err := Build(ctx, in.st, target, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if key(built) != want {
				t.Errorf("Build(WithWorkers(%d)) differs from the serial Build", w)
			}

			h, err = Open(ctx, in.base, target, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Apply(in.rest); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := h.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(ctx, &snap, in.base, target, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			for name, hh := range map[string]*Handle[R]{"Open+Apply": h, "Checkpoint→Restore": restored} {
				res, err := hh.Query(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if key(res) != want {
					t.Errorf("%s at %d workers differs from the serial Build", name, w)
				}
			}
		}

		if !c.refuse {
			return
		}
		if err := h.Merge(refuse.state); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Merge(%T) = %v, want ErrBadConfig", refuse.state, err)
		}
		if _, err := Restore(ctx, bytes.NewReader(refuse.ckpt), in.base, target); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("Restore of another target's checkpoint = %v, want ErrBadCheckpoint", err)
		}
	})
}

// restoreForgedForest restores two CRC-valid checkpoints of a forest
// handle on n vertices holding the one update {0, 1}: the honest one, and
// one whose state has every sampler block passed through forge (block i
// is vertex i%n of round i/n; nil suppresses it). It returns both
// Restore errors.
func restoreForgedForest(t *testing.T, n int, forge func(i uint64, enc []byte) []byte) (honest, forged error) {
	t.Helper()
	ctx := context.Background()
	target := ForestTarget{Seed: 41}
	h, err := Open(ctx, NewMemoryStream(n), target)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply([]Update{{U: 0, V: 1, Delta: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := h.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	meta, state, err := readCheckpoint(&snap)
	if err != nil {
		t.Fatal(err)
	}
	r, w := wire.NewReader(state, ErrBadCheckpoint), &wire.Writer{}
	w.U64(r.U64())
	w.U64(r.U64())
	n64, rounds, perLvl := r.Uvarint(), r.Uvarint(), r.Uvarint()
	for _, v := range []uint64{n64, rounds, perLvl} {
		w.Uvarint(v)
	}
	for i := uint64(0); i < rounds*n64; i++ {
		enc := forge(i, r.SketchBlock())
		w.Uvarint(uint64(len(enc)))
		w.Raw(enc)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	var errs [2]error
	for k, st := range [][]byte{state, w.Bytes()} {
		var ckpt bytes.Buffer
		bw := bufio.NewWriter(&ckpt)
		mw := &wire.Writer{}
		mw.Byte(byte(meta.kind))
		mw.Uvarint(uint64(meta.n))
		mw.Uvarint(uint64(meta.applied))
		if _, err := bw.WriteString(checkpointMagic); err != nil {
			t.Fatal(err)
		}
		for _, sec := range []struct {
			kind    byte
			payload []byte
		}{{sectionMeta, mw.Bytes()}, {sectionState, st}, {sectionEnd, nil}} {
			if err := writeSection(bw, sec.kind, sec.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		_, errs[k] = Restore(ctx, &ckpt, NewMemoryStream(n), target)
	}
	return errs[0], errs[1]
}

// TestRestoreRefusesNonZeroSum: a CRC-valid checkpoint whose forest
// state holds one endpoint of one update — its samplers do not sum to
// zero, which no stream produces — is refused with ErrBadCheckpoint; the
// same container around the honest state restores.
func TestRestoreRefusesNonZeroSum(t *testing.T) {
	const n = 16
	// The forged state is the honest one with vertex 1's samplers
	// suppressed: only vertex 0 keeps the update.
	honest, forged := restoreForgedForest(t, n, func(i uint64, enc []byte) []byte {
		if i%n == 1 {
			return nil
		}
		return enc
	})
	if !errors.Is(forged, ErrBadCheckpoint) {
		t.Errorf("one-endpoint state restored: %v, want ErrBadCheckpoint", forged)
	}
	if honest != nil {
		t.Errorf("honest state refused: %v", honest)
	}
}

// TestRestoreRefusesZeroLevel: a CRC-valid checkpoint whose forest state
// carries, in vertex 0's round-0 sampler, the level just above the
// sampler's top as a present block of all-zero cells is refused with
// ErrBadCheckpoint. The state's content is unchanged, so it still sums
// to zero, but no encoder emits such a block (a zero level is
// suppressed) and it would not re-encode to the same bytes.
func TestRestoreRefusesZeroLevel(t *testing.T) {
	honest, forged := restoreForgedForest(t, 16, func(i uint64, enc []byte) []byte {
		if i != 0 {
			return enc
		}
		head, levels := splitL0(t, enc)
		top := len(levels) - 1
		for levels[top] == nil {
			top--
		}
		levels[top+1] = zeroL0Level(t, enc, top+1)
		return joinL0(head, levels)
	})
	if !errors.Is(forged, ErrBadCheckpoint) {
		t.Errorf("present all-zero level restored: %v, want ErrBadCheckpoint", forged)
	}
	if honest != nil {
		t.Errorf("honest state refused: %v", honest)
	}
}

// splitL0 cuts an L0 sampler encoding into its head (tag, seed,
// universe, perLevel, level count) and its level blocks (nil for a
// suppressed level).
func splitL0(t *testing.T, enc []byte) (head []byte, levels [][]byte) {
	t.Helper()
	r, w := wire.NewReader(enc, ErrBadCheckpoint), &wire.Writer{}
	w.U64(r.U64())
	w.U64(r.U64())
	w.U64(r.U64())
	w.Uvarint(r.Uvarint())
	count := r.Uvarint()
	w.Uvarint(count)
	for j := uint64(0); j < count && r.Err() == nil; j++ {
		levels = append(levels, r.SketchBlock())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), levels
}

func joinL0(head []byte, levels [][]byte) []byte {
	w := &wire.Writer{}
	w.Raw(head)
	for _, b := range levels {
		w.Uvarint(uint64(len(b)))
		w.Raw(b)
	}
	return w.Bytes()
}

// zeroL0Level returns level j of enc's family as a present block over
// all-zero cells: the level's block in the encoding of a sampler of the
// same family holding one key that reaches level j, its cells cleared
// after the 40-byte SketchB header (tag, seed, capacity, rows, cols).
func zeroL0Level(t *testing.T, enc []byte, j int) []byte {
	t.Helper()
	r := wire.NewReader(enc, ErrBadCheckpoint)
	r.U64()
	seed, universe, perLevel := r.U64(), r.U64(), r.Uvarint()
	fam := sketch.NewL0Family(seed, universe, int(perLevel))
	var h sketch.L0Hint
	key := uint64(0)
	for fam.Hint(key, &h); h.Level() < j; fam.Hint(key, &h) {
		key++
	}
	s := fam.NewSampler()
	s.Add(key, 1)
	one, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, levels := splitL0(t, one)
	block := slices.Clone(levels[j])
	clear(block[40:])
	return block
}
