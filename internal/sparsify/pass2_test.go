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

// forEachCell visits the cells an update reaches: a column's cell of
// row r (from 0) sketches the edges whose column level is at least
// r+first — E^j_t in oracle column j, E_j in sample column s. It is the
// per-update routing the grid's bucketed sweep replaced, kept as the
// reference of TestGridPass2KernelMatchesReference.
func (g *Grid) forEachCell(u stream.Update, visit func(cell *spanner.TwoPass) error) error {
	key := stream.PairKey(u.U, u.V, g.n)
	for _, col := range g.cols {
		level := col.hash.Level(key)
		for r := 0; r < col.rows && level >= r+col.first; r++ {
			if err := visit(g.cells[col.base+r*col.stride]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestGridPass2KernelMatchesReference: the grid's sweep — each chunk
// bucketed per column, cells swept in ranges — leaves the grid bit for
// bit as feeding every update to each of its cells one at a time does,
// in oracle and sample columns alike. Pass 1 is checked in batches of 1, 7 and a full chunk, before and after
// EndPass1; pass 2 in the same batches at 1, 2, 3 and 8 ranges, and
// through a policy whose eight workers GOMAXPROCS allows. The input
// mixes in zero updates, multiplicities of two and a hub. The cells'
// tables are pinned to the per-update reference, generations included,
// by spanner's TestPass2KernelMatchesReference; here the routing to
// cells is what is checked, through the grid's encoding.
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
	// A sparsifier's grid: 3 oracle columns of 5 rows (first row at level
	// 0, cells strided) and 2 sample columns of 4 rows (first row at
	// level 1, cells contiguous).
	cfg := Config{K: 2, Z: 2, H: 4, Seed: 64, Estimate: EstimateConfig{K: 2, J: 3, T: 5, Delta: 0.34, Seed: 63}}.withDefaults(n)
	encode := func(g *Grid) []byte {
		t.Helper()
		b, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := func() *Grid { return newGrid(n, cfg, true) }
	end := func(g *Grid) {
		t.Helper()
		if err := g.EndPass1(); err != nil {
			t.Fatal(err)
		}
	}
	ref1 := fresh()
	for _, u := range ups {
		if err := ref1.forEachCell(u, func(c *spanner.TwoPass) error { return c.Pass1Update(u) }); err != nil {
			t.Fatal(err)
		}
	}
	wantOpen := encode(ref1)
	end(ref1)
	wantClosed := encode(ref1)
	for _, size := range []int{1, 7, stream.DefaultBatchSize} {
		g := fresh()
		for lo := 0; lo < len(ups); lo += size {
			if err := g.Pass1AddBatch(ups[lo:min(lo+size, len(ups))]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(encode(g), wantOpen) {
			t.Fatalf("pass 1, batch=%d: grid bytes differ from the per-cell reference", size)
		}
		end(g)
		if !bytes.Equal(encode(g), wantClosed) {
			t.Fatalf("pass 1, batch=%d: grid bytes after EndPass1 differ from the per-cell reference", size)
		}
	}
	closed := func() *Grid {
		t.Helper()
		g := fresh()
		if err := g.Pass1AddBatch(ups); err != nil {
			t.Fatal(err)
		}
		end(g)
		return g
	}
	ref := closed()
	for _, u := range ups {
		if err := ref.forEachCell(u, func(c *spanner.TwoPass) error { return c.Pass2Update(u) }); err != nil {
			t.Fatal(err)
		}
	}
	want := encode(ref)
	for _, size := range []int{1, 7, stream.DefaultBatchSize} {
		for _, w := range []int{1, 2, 3, 8} {
			g := closed()
			for lo := 0; lo < len(ups); lo += size {
				if err := g.ingest(ups[lo:min(lo+size, len(ups))], 1, w); err != nil {
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

// slotGridConfig is a sparsifier's grid of 3 oracle columns of 5 rows
// and 2 sample columns of 4 rows, on slotGridN vertices.
const slotGridN = 48

var slotGridConfig = Config{K: 2, Z: 2, H: 4, Seed: 64, Estimate: EstimateConfig{K: 2, J: 3, T: 5, Delta: 0.34, Seed: 63}}.withDefaults(slotGridN)

// slotGridUpdates is a churn stream over a random graph on slotGridN
// vertices.
func slotGridUpdates() []stream.Update {
	var ups []stream.Update // a memory stream's replay cannot fail
	_ = stream.WithChurn(graph.ConnectedGNP(slotGridN, 0.15, 61), 300, 62).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	})
	return ups
}

// closedGrid is a slotGridConfig grid with pass 1 of ups ingested and
// closed.
func closedGrid(t *testing.T, ups []stream.Update) *Grid {
	t.Helper()
	g := newGrid(slotGridN, slotGridConfig, true)
	if err := g.Pass1AddBatch(ups); err != nil {
		t.Fatal(err)
	}
	if err := g.EndPass1(); err != nil {
		t.Fatal(err)
	}
	return g
}

// gridSlots sums the cells' table slot counts.
func gridSlots(g *Grid) (created, touched int) {
	for _, c := range g.cells {
		_, cr, to := c.TableSlots()
		created, touched = created+cr, touched+to
	}
	return created, touched
}

// TestGridNilSlots: the cells of a grid, oracle and sample cells alike,
// create a pass-2 table slot only when the grid's sweep first writes
// it: after pass 2 every cell's created slots are its touched tables, a
// wire round trip keeps the bytes and creates no slot, and grid workers
// forked and merged back create the slots the serial pass 2 creates.
func TestGridNilSlots(t *testing.T) {
	ups := slotGridUpdates()
	g := closedGrid(t, ups)
	if err := g.Pass2AddBatch(ups); err != nil {
		t.Fatal(err)
	}
	for i, c := range g.cells {
		if provisioned, created, touched := c.TableSlots(); created != touched || created == provisioned {
			t.Fatalf("cell %d: %d of %d slots created, %d touched", i, created, provisioned, touched)
		}
	}
	created, _ := gridSlots(g)
	if created == 0 {
		t.Fatal("pass 2 created no slot; the case is not covered")
	}
	enc, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(Grid)
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if again, err := back.MarshalBinary(); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("round trip changed the bytes (err %v)", err)
	}
	if c, _ := gridSlots(back); c > created {
		t.Fatalf("decoding created %d slots, the encoded grid %d", c, created)
	}

	merged := closedGrid(t, ups)
	for i := 0; i < 2; i++ {
		w, err := merged.ForkPass2()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Pass2AddBatch(ups[i*len(ups)/2 : (i+1)*len(ups)/2]); err != nil {
			t.Fatal(err)
		}
		if err := merged.MergePass2(w); err != nil {
			t.Fatal(err)
		}
	}
	if c, to := gridSlots(merged); c != created || to != created {
		t.Fatalf("merged workers created %d slots (%d touched), the serial pass 2 %d", c, to, created)
	}
	if got, err := merged.MarshalBinary(); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("merged workers encode differently from the serial pass 2 (err %v)", err)
	}
}
