package spanner

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// refPass2 is the per-update pass-2 loop the table kernel replaced, kept
// as its reference: each update is routed from both endpoints, one
// table add per (terminal, level).
func refPass2(tp *TwoPass, batch []stream.Update) {
	for _, u := range batch {
		routePass2(tp, u.U, u.V, int64(u.Delta))
		routePass2(tp, u.V, u.U, int64(u.Delta))
	}
}

// routePass2 adds the update of edge (a, b) to H^t_j for every terminal
// t containing a but not b, at every level j with a ∈ Y_j.
func routePass2(tp *TwoPass, a, b int, delta int64) {
	maxJ := min(tp.yLevel.Level(uint64(a)), tp.yMax)
	for _, t := range tp.terminalsOf[a] {
		if containsInt(tp.terminalsOf[b], t) {
			continue // b inside the same cluster
		}
		for j := 0; j <= maxJ; j++ {
			tp.table(t, j).Add(a, b, delta)
		}
	}
}

// kernelUpdates is emptiedStream's updates with what a stream source
// never delivers but the kernel must still take: a zero update after
// every seventh one, multiplicities of two, and a hub — vertex n−1 —
// joined to every other vertex, half of those edges deleted again, so
// that one cluster's tables take an incidence from most updates and
// the hub's updates reach many terminals.
func kernelUpdates(t *testing.T, n int, seed uint64) []stream.Update {
	t.Helper()
	var ups []stream.Update
	if err := emptiedStream(t, n, seed).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		if len(ups)%7 == 0 {
			ups = append(ups, stream.Update{U: u.V, V: u.U})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	hub := n - 1
	for v := 0; v < hub; v++ {
		ups = append(ups, stream.Update{U: hub, V: v, Delta: 2})
	}
	for v := 0; v < hub; v += 2 {
		ups = append(ups, stream.Update{U: v, V: hub, Delta: -2})
	}
	return ups
}

// closedPass1 runs pass 1 over ups and closes it.
func closedPass1(t *testing.T, n int, ups []stream.Update, cfg Config) *TwoPass {
	t.Helper()
	tp := NewTwoPass(n, cfg)
	if err := tp.Pass1AddBatch(ups); err != nil {
		t.Fatal(err)
	}
	if err := tp.EndPass1(); err != nil {
		t.Fatal(err)
	}
	return tp
}

// feedBatches hands ups to add in batches of size.
func feedBatches(ups []stream.Update, size int, add func([]stream.Update)) {
	for lo := 0; lo < len(ups); lo += size {
		add(ups[lo:min(lo+size, len(ups))])
	}
}

// sameTables asserts that got's pass-2 tables equal want's in every
// observable: layout, encoded bytes, generation and materialization. A
// nil slot is the zero table, so it equals any table that IsZero.
func sameTables(t *testing.T, label string, got, want *TwoPass) {
	t.Helper()
	if len(got.tables) != len(want.tables) {
		t.Fatalf("%s: %d table rows, reference %d", label, len(got.tables), len(want.tables))
	}
	for ci, row := range want.tables {
		if (got.tables[ci] == nil) != (row == nil) {
			t.Fatalf("%s: copy %d has a row in only one of the states", label, ci)
		}
		for j, w := range row {
			g := got.tables[ci][j]
			if g.Gen() != w.Gen() || g.Touched() != w.Touched() {
				t.Fatalf("%s: table (%d, %d): gen %d touched %v, reference gen %d touched %v",
					label, ci, j, g.Gen(), g.Touched(), w.Gen(), w.Touched())
			}
			if g == nil || w == nil {
				if !g.IsZero() || !w.IsZero() {
					t.Fatalf("%s: table (%d, %d) is nil in one state and non-zero in the other", label, ci, j)
				}
				continue
			}
			gb, _ := g.MarshalBinary()
			wb, _ := w.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s: table (%d, %d) encodes differently from the reference", label, ci, j)
			}
		}
	}
}

// TestPass2KernelMatchesReference: the table kernel leaves every pass-2
// table as the per-update reference does — state bytes, generations and
// first touch — at K = 2 and 3, in batches of 1, 7 and a full chunk,
// routed in 1, 2, 3 and 8 parts (more parts than updates included), and
// through a policy whose eight workers GOMAXPROCS allows. A live state
// rebuilding its tables at query time goes through the same kernel.
func TestPass2KernelMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	const n = 90
	for _, k := range []int{2, 3} {
		cfg := Config{K: k, Seed: 77, CollectAugmented: true}
		ups := kernelUpdates(t, n, uint64(40+k))
		want := closedPass1(t, n, ups, cfg)
		refPass2(want, ups)
		wantBytes, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for _, row := range want.tables {
			for _, tab := range row {
				if tab.Touched() {
					touched++
				}
			}
		}
		if touched == 0 {
			t.Fatal("the reference touched no table; the case is not covered")
		}
		check := func(label string, got *TwoPass) {
			t.Helper()
			sameTables(t, label, got, want)
			if b, err := got.MarshalBinary(); err != nil || !bytes.Equal(b, wantBytes) {
				t.Fatalf("%s: state bytes differ from the reference (err %v)", label, err)
			}
		}
		for _, size := range []int{1, 7, stream.DefaultBatchSize} {
			for _, w := range []int{1, 2, 3, 8} {
				got := closedPass1(t, n, ups, cfg)
				feedBatches(ups, size, func(b []stream.Update) { got.addPass2(b, w) })
				check(fmt.Sprintf("k=%d batch=%d w=%d", k, size, w), got)
			}
		}
		got := closedPass1(t, n, ups, cfg)
		p := parallel.Default().WithWorkers(8)
		if err := got.Pass2AddBatchOpts(ups, p); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("k=%d Pass2AddBatchOpts at 8 workers", k), got)

		// A live state: its first query clusters and rebuilds the tables
		// from the base stream and the log; the second folds the log
		// suffix (or rebuilds again, if the clusters moved).
		base, log := ups[:len(ups)/2], ups[len(ups)/2:]
		src := stream.NewMemoryStream(n)
		for _, u := range base {
			if u.Delta == 1 || u.Delta == -1 {
				if err := src.Append(u); err != nil {
					t.Fatal(err)
				}
			}
		}
		// fed is src as it replays (endpoints in canonical order), then the
		// log; a memory stream's replay cannot fail.
		var fed []stream.Update
		_ = src.Replay(func(u stream.Update) error { fed = append(fed, u); return nil })
		live := NewTwoPass(n, cfg)
		if err := live.StartLive(src); err != nil {
			t.Fatal(err)
		}
		for round, part := range [][]stream.Update{log[:len(log)/2], log[len(log)/2:]} {
			if err := live.ApplyLive(part); err != nil {
				t.Fatal(err)
			}
			fed = append(fed, part...)
			if _, err := live.QueryLive(p); err != nil {
				t.Fatal(err)
			}
			ref := *live
			ref.tables = ref.allocTables()
			refPass2(&ref, fed)
			sameTables(t, fmt.Sprintf("k=%d live query %d", k, round), live, &ref)
		}
	}
}

// TestPass2Allocs: re-ingesting a chunk whose tables have all
// materialized allocates nothing at one part, and only its goroutines
// when fanned out; a table's batch add through the sweeper's scratch
// allocates nothing.
func TestPass2Allocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	g := graph.ConnectedGNP(300, 0.03, 5)
	st := stream.WithChurn(g, g.M(), 6)
	var ups []stream.Update
	_ = st.Replay(func(u stream.Update) error { ups = append(ups, u); return nil }) // a memory stream's replay cannot fail
	tp := closedPass1(t, st.N(), ups, Config{K: 2, Seed: 7})
	tp.addPass2(ups, 1) // materializes every table the chunk reaches and sizes the scratch
	if allocs := testing.AllocsPerRun(5, func() { tp.addPass2(ups, 1) }); allocs != 0 {
		t.Errorf("pass-2 chunk on materialized tables: %v allocs per run, want 0", allocs)
	}
	w := parallel.BatchWorkers(2, len(ups))
	if w != 2 {
		t.Fatalf("a %d-update batch fans out to %d parts, want 2", len(ups), w)
	}
	if pass2Parts.Cap() < w {
		t.Skipf("the free list keeps %d part on a one-processor start; a %d-part call re-makes the rest", pass2Parts.Cap(), w)
	}
	tp.addPass2(ups, w)
	goroutines := 2 * (w - 1) // one route and one sweep goroutine per extra part
	if allocs := testing.AllocsPerRun(5, func() { tp.addPass2(ups, w) }); allocs > float64(goroutines) {
		t.Errorf("pass-2 chunk at %d parts: %v allocs per run, want at most %d (its goroutines)", w, allocs, goroutines)
	}
}
