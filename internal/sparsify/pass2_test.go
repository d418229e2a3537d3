package sparsify

import (
	"bytes"
	"runtime"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// TestGridPass2KernelMatchesReference: the grid's pass-2 kernel — each
// chunk bucketed per column, cells swept in ranges — leaves the grid
// bit for bit as feeding every update to each of its cells one at a
// time does, in batches of 1, 7 and a full chunk, at 1, 2, 3 and 8
// ranges, and through a policy whose eight workers GOMAXPROCS allows.
// The input mixes in zero updates, multiplicities of two and a hub.
// The cells' tables are pinned to the per-update reference, generations
// included, by spanner's TestPass2KernelMatchesReference; here the
// routing to cells is what is checked, through the grid's encoding.
func TestGridPass2KernelMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	const n = 48
	var ups []stream.Update // a memory stream's replay cannot fail
	_ = stream.WithChurn(graph.ConnectedGNP(n, 0.15, 61), 300, 62).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		if len(ups)%7 == 0 {
			ups = append(ups, stream.Update{U: u.V, V: u.U})
		}
		return nil
	})
	for v := 0; v < n-1; v++ {
		ups = append(ups, stream.Update{U: n - 1, V: v, Delta: 2})
	}
	for v := 0; v < n-1; v += 2 {
		ups = append(ups, stream.Update{U: v, V: n - 1, Delta: -2})
	}
	cfg := EstimateConfig{K: 2, J: 3, T: 5, Delta: 0.34, Seed: 63}
	closed := func() *Grid {
		t.Helper()
		g, err := NewGrid(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Pass1AddBatch(ups); err != nil {
			t.Fatal(err)
		}
		if err := g.EndPass1(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	encode := func(g *Grid) []byte {
		t.Helper()
		b, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := closed()
	for _, u := range ups {
		if err := ref.forEachCell(u, func(c *spanner.TwoPass) error { return c.Pass2Update(u) }); err != nil {
			t.Fatal(err)
		}
	}
	want := encode(ref)
	for _, size := range []int{1, 7, gridChunk} {
		for _, w := range []int{1, 2, 3, 8} {
			g := closed()
			for lo := 0; lo < len(ups); lo += size {
				if err := g.addPass2(ups[lo:min(lo+size, len(ups))], w); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(encode(g), want) {
				t.Fatalf("batch=%d w=%d: grid bytes differ from the per-cell reference", size, w)
			}
		}
	}
	g := closed()
	if err := g.Pass2AddBatchOpts(ups, parallel.Default().WithWorkers(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(g), want) {
		t.Fatal("Pass2AddBatchOpts at 8 workers: grid bytes differ from the per-cell reference")
	}
	if err := closed().Pass1AddBatch(ups[:1]); err == nil {
		t.Error("pass-1 ingest accepted after EndPass1")
	}
}
