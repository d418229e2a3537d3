package dynstream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// The five single-pass states satisfy the one constraint onePass needs.
var (
	_ sketchState[*agm.Sketch]        = (*agm.Sketch)(nil)
	_ sketchState[*agm.KConnectivity] = (*agm.KConnectivity)(nil)
	_ sketchState[*agm.Bipartiteness] = (*agm.Bipartiteness)(nil)
	_ sketchState[*agm.MSF]           = (*agm.MSF)(nil)
	_ sketchState[*spanner.Additive]  = (*spanner.Additive)(nil)
)

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
	shards, err := SplitStream(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := st.N()

	t.Run("forest", func(t *testing.T) {
		mk := func() *ForestSketch { return NewForestSketch(1003, n, ForestConfig{}) }
		checkSinglePass(t, st, shards, mk, func() *ForestSketch { return new(ForestSketch) }, addBatch[*ForestSketch])
	})
	t.Run("kconnectivity", func(t *testing.T) {
		mk := func() *KConnectivity { return NewKConnectivity(1004, n, 2) }
		checkSinglePass(t, st, shards, mk, func() *KConnectivity { return new(KConnectivity) }, addBatch[*KConnectivity])
	})
	t.Run("bipartiteness", func(t *testing.T) {
		mk := func() *Bipartiteness { return NewBipartiteness(1005, n) }
		checkSinglePass(t, st, shards, mk, func() *Bipartiteness { return new(Bipartiteness) }, addBatch[*Bipartiteness])
	})
	t.Run("msf", func(t *testing.T) {
		mk := func() *MSF { return NewMSF(1006, n, 8, 0.5) }
		checkSinglePass(t, st, shards, mk, func() *MSF { return new(MSF) }, addBatch[*MSF])
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
		empty := func() *TwoPassSpanner { return new(TwoPassSpanner) }
		for name, fork := range protos {
			tp := NewTwoPassSpanner(n, cfg)
			shipMerge(t, shards, tp, func() *TwoPassSpanner { return NewTwoPassSpanner(n, cfg) }, empty,
				(*TwoPassSpanner).Pass1AddBatch, (*TwoPassSpanner).MergePass1)
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
				(*TwoPassSpanner).Pass2AddBatch, (*TwoPassSpanner).MergePass2)
			got, err := tp.Finish()
			if err != nil {
				t.Fatal(err)
			}
			edgesEqual(t, "two-pass spanner, "+name, got.Spanner, want.Spanner)
		}
	})

	t.Run("grid", func(t *testing.T) {
		cfg := EstimateConfig{K: 1, J: 2, T: 4, Delta: 0.34, Seed: 1009}
		mk := func() *OracleGrid {
			g, err := NewOracleGrid(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		serial := mk()
		ingestInto(t, st, serial, (*OracleGrid).Pass1AddBatch)
		if err := serial.EndPass1(); err != nil {
			t.Fatal(err)
		}
		ingestInto(t, st, serial, (*OracleGrid).Pass2AddBatch)
		serialEnc, err := serial.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Finish()
		if err != nil {
			t.Fatal(err)
		}

		empty := func() *OracleGrid { return new(OracleGrid) }
		for name, fork := range protos {
			grid := mk()
			shipMerge(t, shards, grid, mk, empty, (*OracleGrid).Pass1AddBatch, (*OracleGrid).MergePass1)
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
				(*OracleGrid).Pass2AddBatch, (*OracleGrid).MergePass2)
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
// sharded Build, Open over a prefix plus Apply of the rest, and
// Checkpoint→Restore of that handle — compared by the state's encoding
// (by the decoded result for the additive spanner, whose result is not
// its state). The shared adapter's typed rejections ride along: a Merge
// of another target's state type, a Restore of another target's
// checkpoint.
func TestOnePassTargets(t *testing.T) {
	g := graph.New(40)
	for i, e := range graph.ConnectedGNP(40, 0.1, 2811).Edges() {
		g.AddEdge(e.U, e.V, float64(1+i%8))
	}
	st := StreamWithChurn(g, 60, 2812)
	n := st.N()
	base := NewMemoryStream(n)
	var rest []Update
	err := st.Replay(func(u Update) error {
		if base.Len() < st.Len()/2 {
			return base.Append(u)
		}
		rest = append(rest, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	fh, err := Open(ctx, base, ForestTarget{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bh, err := Open(ctx, base, BipartitenessTarget{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	forestCkpt, bipCkpt := ckpt(fh), ckpt(bh)
	forestState := NewForestSketch(1, n, ForestConfig{})

	encoding := func(s wireState) string {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	t.Run("forest", func(t *testing.T) {
		checkOnePassTarget(t, st, base, rest, ForestTarget{Seed: 2813}, bipCkpt, NewBipartiteness(1, n),
			func(s *ForestSketch) string { return encoding(s) })
	})
	t.Run("kconnectivity", func(t *testing.T) {
		checkOnePassTarget(t, st, base, rest, KConnectivityTarget{Seed: 2814, K: 2}, forestCkpt, forestState,
			func(s *KConnectivity) string { return encoding(s) })
	})
	t.Run("bipartiteness", func(t *testing.T) {
		checkOnePassTarget(t, st, base, rest, BipartitenessTarget{Seed: 2815}, forestCkpt, forestState,
			func(s *Bipartiteness) string { return encoding(s) })
	})
	t.Run("msf", func(t *testing.T) {
		checkOnePassTarget(t, st, base, rest, MSFTarget{Seed: 2816, WMax: 8, Gamma: 0.5}, forestCkpt, forestState,
			func(s *MSF) string { return encoding(s) })
		// A live handle cannot scan for its weight bound: a later Apply
		// could exceed whatever the base stream held.
		if _, err := Open(ctx, base, MSFTarget{Seed: 2816}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Open(MSFTarget{WMax: 0}) = %v, want ErrBadConfig", err)
		}
	})
	t.Run("additive", func(t *testing.T) {
		checkOnePassTarget(t, st, base, rest, AdditiveTarget{Config: AdditiveConfig{D: 3, Seed: 2817}}, forestCkpt, forestState,
			func(r *AdditiveResult) string {
				return fmt.Sprint(r.Spanner.Edges(), r.Centers, r.LowDegree, r.SpaceWords)
			})
	})
}

func checkOnePassTarget[R any](t *testing.T, st, base Stream, rest []Update, target Target[R],
	foreignCkpt []byte, foreignState any, key func(R) string) {
	t.Helper()
	ctx := context.Background()
	serial, err := Build(ctx, st, target, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := key(serial)
	sharded, err := Build(ctx, st, target, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if key(sharded) != want {
		t.Error("Build(WithWorkers(3)) differs from the serial Build")
	}

	h, err := Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply(rest); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := h.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(ctx, &snap, base, target)
	if err != nil {
		t.Fatal(err)
	}
	for name, hh := range map[string]*Handle[R]{"Open+Apply": h, "Checkpoint→Restore": restored} {
		res, err := hh.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if key(res) != want {
			t.Errorf("%s differs from the serial Build", name)
		}
	}

	if err := h.Merge(foreignState); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Merge(%T) = %v, want ErrBadConfig", foreignState, err)
	}
	if _, err := Restore(ctx, bytes.NewReader(foreignCkpt), base, target); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("Restore of another target's checkpoint = %v, want ErrBadCheckpoint", err)
	}
}
