package dynstream_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynstream"
	"dynstream/internal/agm"
	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
	"dynstream/internal/sketch"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
)

// TestWireGolden pins the bytes of every encoding that crosses a process
// boundary and is not pinned elsewhere (TestAGMMarshalGolden covers the
// AGM sketch and its samplers, TestTwoPassMarshalGolden the two-pass
// spanner states): the sketch, application, spanner and sparsifier
// blobs, the checkpoint container of all seven targets, and the dynnet
// payloads. Each row is the first 8 bytes of the encoding's SHA-256.
// The codec behind these bytes may change; the bytes may not. The two
// Grid rows were re-pinned once, when the grid gained sample columns
// (tag 0x010b and a zero sample header ahead of the oracle
// configuration): only same-version dynnet peers exchange grids.
func TestWireGolden(t *testing.T) {
	golden := map[string]string{
		"SketchB":                   "0ab4b4a029017e31",
		"KeyedEdgeSketch":           "16560802d29cf566",
		"KeyedEdgeSketch/untouched": "faf7f2cf810f0a34",
		"F0":                        "e2e49db0f5a6361e",
		"KConnectivity":             "4df6c59b269df5d6",
		"Bipartiteness":             "ee8a7a00893ff49c",
		"MSF":                       "0b4cec3737fe3fed",
		"Additive":                  "111eb6d812c4ac0a",
		"Additive/F0Degree":         "2a9e4c2dff23e3aa",
		"Grid/phase0":               "51b98d64cbf74533",
		"Grid/phase1":               "3b45d73bdc30ed03",
		"TwoPass/live":              "31431648cfb5b2a5",
		"Sparsifier/live":           "5f5f299a7acaed65",
		"checkpoint/forest":         "0cd7ccefc6ff0e76",
		"checkpoint/kconnectivity":  "4b33dddcbf6ff33a",
		"checkpoint/bipartiteness":  "24778b34efbc71a2",
		"checkpoint/msf":            "4ffaf53df709354d",
		"checkpoint/additive":       "63f7c734b9579f77",
		"checkpoint/spanner":        "292e7d9c822b7bc8",
		"checkpoint/sparsifier":     "b1c0b82d8ca07deb",
		"dynnet/Hello":              "d11d2df82c2da09b",
		"dynnet/Assign":             "bdbc7b001bc9de88",
		"dynnet/Updates":            "ec3bbf219ae6a2ac",
		"dynnet/Sketch":             "1b4798e32312847d",
		"dynnet/Error":              "3b4e00b26e563bc6",
	}
	for _, tc := range wireGoldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.encode(t)
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:8]); got != golden[tc.name] {
				t.Errorf("%d bytes, digest %s, golden %s", len(enc), got, golden[tc.name])
			}
		})
	}
}

type wireCase struct {
	name   string
	encode func(t *testing.T) []byte
}

// marshaled returns m's encoding, failing the test on an error.
func marshaled(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func wireGoldenCases(t *testing.T) []wireCase {
	g := graph.ConnectedGNP(24, 0.2, 31)
	for i := 0; i < g.N(); i++ {
		g.AddEdge(i, (i+5)%g.N(), float64(1+i%6))
	}
	st := stream.WithChurn(g, 80, 32)
	var ups []stream.Update
	if err := st.Replay(func(u stream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	n := st.N()

	cases := []wireCase{
		{"SketchB", func(t *testing.T) []byte {
			s := sketch.NewSketchB(41, 6)
			for i, k := range []uint64{3, 99, 12345, 777777} {
				s.Add(k, int64(i)-2)
			}
			return marshaled(t, s)
		}},
		{"KeyedEdgeSketch", func(t *testing.T) []byte {
			s := sketch.NewKeyedEdgeSketch(42, n, 4)
			for _, u := range ups[:12] {
				s.Add(u.U, u.V, int64(u.Delta))
			}
			return marshaled(t, s)
		}},
		{"KeyedEdgeSketch/untouched", func(t *testing.T) []byte {
			return marshaled(t, sketch.NewKeyedEdgeSketch(42, n, 4))
		}},
		{"F0", func(t *testing.T) []byte {
			f := sketch.NewF0(43, 1<<20)
			for k := uint64(0); k < 40; k++ {
				f.Add(k*k+7, 1)
			}
			return marshaled(t, f)
		}},
		{"KConnectivity", func(t *testing.T) []byte {
			kc := agm.NewKConnectivity(44, n, 3)
			kc.AddBatch(ups)
			return marshaled(t, kc)
		}},
		{"Bipartiteness", func(t *testing.T) []byte {
			b := agm.NewBipartiteness(45, n)
			b.AddBatch(ups)
			return marshaled(t, b)
		}},
		{"MSF", func(t *testing.T) []byte {
			m := agm.NewMSF(46, n, 8, 0.5)
			m.AddBatch(ups)
			return marshaled(t, m)
		}},
	}
	for _, f0 := range []bool{false, true} {
		f0, name := f0, "Additive"
		if f0 {
			name += "/F0Degree"
		}
		cases = append(cases, wireCase{name, func(t *testing.T) []byte {
			a := spanner.NewAdditive(n, spanner.AdditiveConfig{D: 3, Seed: 47, UseF0Degree: f0})
			if err := a.AddBatch(ups); err != nil {
				t.Fatal(err)
			}
			return marshaled(t, a)
		}})
	}
	grid := func(t *testing.T, phase int) []byte {
		gr, err := sparsify.NewGrid(n, sparsify.EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 48})
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.ReplayBatches(st, 0, gr.Pass1AddBatch); err != nil {
			t.Fatal(err)
		}
		if phase == 1 {
			if err := gr.EndPass1(); err != nil {
				t.Fatal(err)
			}
			if err := stream.ReplayBatches(st, 0, gr.Pass2AddBatch); err != nil {
				t.Fatal(err)
			}
		}
		return marshaled(t, gr)
	}
	cases = append(cases,
		wireCase{"Grid/phase0", func(t *testing.T) []byte { return grid(t, 0) }},
		wireCase{"Grid/phase1", func(t *testing.T) []byte { return grid(t, 1) }},
		wireCase{"TwoPass/live", func(t *testing.T) []byte {
			tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: 49, CollectAugmented: true})
			if err := tp.StartLive(st); err != nil {
				t.Fatal(err)
			}
			if err := tp.ApplyLive(ups[:9]); err != nil {
				t.Fatal(err)
			}
			enc, err := tp.MarshalLive()
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}},
		wireCase{"Sparsifier/live", func(t *testing.T) []byte {
			ls, err := sparsify.StartLive(st, sparsify.Config{K: 1, Z: 2, Seed: 50,
				Estimate: sparsify.EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 51}})
			if err != nil {
				t.Fatal(err)
			}
			if err := ls.ApplyLive(ups[:9]); err != nil {
				t.Fatal(err)
			}
			enc, err := ls.MarshalLive()
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}},
	)
	cases = append(cases, checkpointCases(ups, n)...)
	batch := append([]stream.Update{{U: 1, V: 300, Delta: 1, W: 2.5}}, ups[:5]...)
	return append(cases,
		wireCase{"dynnet/Hello", func(*testing.T) []byte { return dynnet.EncodeHello(dynnet.Hello{ID: "worker-7"}) }},
		wireCase{"dynnet/Assign", func(*testing.T) []byte {
			return dynnet.EncodeAssign(dynnet.Assign{Kind: dynnet.KindTwoPass, Local: true, Seq: 300, N: 1 << 20, Blob: []byte("proto")})
		}},
		wireCase{"dynnet/Updates", func(*testing.T) []byte { return dynnet.AppendUpdates([]byte{0xee}, batch) }},
		wireCase{"dynnet/Sketch", func(*testing.T) []byte {
			return dynnet.EncodeSketch(dynnet.SketchMsg{Updates: 1 << 40, Blob: []byte("state")})
		}},
		wireCase{"dynnet/Error", func(*testing.T) []byte {
			return dynnet.EncodeError(dynnet.ErrorMsg{Code: dynnet.CodeNotReplayable, Msg: "pass 2"})
		}},
	)
}

// checkpointCases checkpoints a handle of each of the seven targets,
// opened over the first half of ups with the second half applied.
func checkpointCases(ups []stream.Update, n int) []wireCase {
	cut := len(ups) / 2
	open := func(t *testing.T) (*dynstream.MemoryStream, []dynstream.Update) {
		base := dynstream.NewMemoryStream(n)
		appendAll(t, base, ups[:cut])
		return base, ups[cut:]
	}
	return []wireCase{
		{"checkpoint/forest", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.ForestTarget{Seed: 52})
		}},
		{"checkpoint/kconnectivity", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.KConnectivityTarget{Seed: 53, K: 2})
		}},
		{"checkpoint/bipartiteness", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.BipartitenessTarget{Seed: 54})
		}},
		{"checkpoint/msf", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.MSFTarget{Seed: 55, WMax: 8, Gamma: 0.5})
		}},
		{"checkpoint/additive", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 3, Seed: 56}})
		}},
		{"checkpoint/spanner", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest,
				dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 57, CollectAugmented: true}})
		}},
		{"checkpoint/sparsifier", func(t *testing.T) []byte {
			base, rest := open(t)
			return checkpointOf(t, base, rest, dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
				K: 1, Z: 2, Seed: 58, Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 59}}})
		}},
	}
}

// checkpointOf opens target over base, applies rest, and returns the
// handle's checkpoint.
func checkpointOf[R any](t *testing.T, base *dynstream.MemoryStream, rest []dynstream.Update, target dynstream.Target[R]) []byte {
	t.Helper()
	h, err := dynstream.Open(context.Background(), base, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply(rest); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
