package agm

import (
	"bytes"
	"fmt"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// AddBatch must be bit-for-bit identical to update-at-a-time ingestion:
// same marshaled sketch bytes, same extracted forest. Exercised on a
// random insert-only stream and on a churn (insert-then-delete) stream,
// and (via -race in CI) under the concurrent sharded pipeline.

func batchStreams(t *testing.T, n int) map[string]*stream.MemoryStream {
	t.Helper()
	g := graph.ConnectedGNP(n, 0.1, 0xabba)
	return map[string]*stream.MemoryStream{
		"random": stream.FromGraph(g, 0xcafe),
		"churn":  stream.WithChurn(g, 4*g.M(), 0xdead),
	}
}

func TestSketchAddBatchEquivalence(t *testing.T) {
	for name, st := range batchStreams(t, 64) {
		t.Run(name, func(t *testing.T) {
			one := New(0x71, st.N(), Config{})
			if err := st.Replay(func(u stream.Update) error { one.AddUpdate(u); return nil }); err != nil {
				t.Fatal(err)
			}
			batched := New(0x71, st.N(), Config{})
			if err := stream.ReplayBatches(st, 100, func(b []stream.Update) error {
				batched.AddBatch(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			b1, err := one.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := batched.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("AddBatch sketch bytes differ from AddUpdate")
			}
			f1, err := one.SpanningForest(nil)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := batched.SpanningForest(nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(f1) != fmt.Sprint(f2) {
				t.Fatalf("forests differ: %v vs %v", f1, f2)
			}
		})
	}
}

func TestKConnectivityAddBatchEquivalence(t *testing.T) {
	for name, st := range batchStreams(t, 48) {
		t.Run(name, func(t *testing.T) {
			one := NewKConnectivity(0x72, st.N(), 3)
			if err := st.Replay(func(u stream.Update) error { one.AddUpdate(u); return nil }); err != nil {
				t.Fatal(err)
			}
			batched := NewKConnectivity(0x72, st.N(), 3)
			if err := stream.ReplayBatches(st, 0, func(b []stream.Update) error {
				batched.AddBatch(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range one.stack {
				b1, err := one.stack[i].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				b2, err := batched.stack[i].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b1, b2) {
					t.Fatalf("k-connectivity sketch %d differs after AddBatch", i)
				}
			}
		})
	}
}
