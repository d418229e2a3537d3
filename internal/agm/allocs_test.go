package agm

import (
	"runtime"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// TestAGMIngestAllocs pins ingest's allocation behaviour: an update
// allocates only when it carries a sampler to a geometric level that
// sampler had not reached (its tail is reallocated once), so a whole
// build mallocs at most once per such growth, and a warmed sketch —
// every (sampler, level) of the batch already reached — ingests with
// zero allocations. The routing scratch is shared across sketches and
// calls (a free list that neither a collection nor the race detector
// empties): it is sized by a throwaway ingest first and is not the
// build's to pay for.
func TestAGMIngestAllocs(t *testing.T) {
	n, churn := 10000, 30000 // the forest-stream benchmark's shape: 80k updates
	if testing.Short() {
		n, churn = 1000, 3000
	}
	g := graph.ConnectedGNP(n, 4/float64(n), 3)
	var ups []stream.Update
	if err := stream.WithChurn(g, churn, 4).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	s := New(7, n, Config{})
	// Count growths from the routing alone: the first time a sampler
	// sees a level above every earlier one (level 0 is in the arena).
	growths := 0
	tops := make([]int, len(s.samp))
	var h sketch.L0Hint
	for _, u := range ups {
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		for r, fam := range s.fam {
			fam.Hint(stream.PairKey(a, b, n), &h)
			for _, v := range [2]int{a, b} {
				if i := v*s.rounds + r; h.Level() > tops[i] {
					tops[i] = h.Level()
					growths++
				}
			}
		}
	}

	New(7, n, Config{}).AddBatch(ups[:min(len(ups), ingestChunk)]) // sizes the shared scratch

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.AddBatch(ups)
	runtime.ReadMemStats(&after)
	// The slack covers the runtime's own bookkeeping.
	if mallocs := int(after.Mallocs - before.Mallocs); mallocs > growths+64 {
		t.Errorf("build of %d updates: %d mallocs for %d tail growths", len(ups), mallocs, growths)
	}

	warm := ups[:1024]
	if allocs := testing.AllocsPerRun(5, func() { s.AddBatch(warm) }); allocs != 0 {
		t.Errorf("AddBatch on a warmed sketch: %v allocs per run, want 0", allocs)
	}

	// Fanned out, a warmed call allocates its goroutines and nothing
	// else: each chunk routes and sweeps on w-1 goroutines besides the
	// caller's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	wide := ups[:2*min(ingestChunk, 4*n)]
	p := parallel.Default().WithWorkers(2)
	w := parallel.BatchWorkers(2, min(len(wide), ingestChunk, 4*n))
	if w != 2 {
		t.Fatalf("a %d-update batch fans out to %d workers, want 2", len(wide), w)
	}
	s.AddBatchOpts(wide, p)
	goroutines := 2 * (w - 1) * 2 // per chunk: one route and one sweep goroutine; two chunks
	if allocs := testing.AllocsPerRun(5, func() { s.AddBatchOpts(wide, p) }); allocs > float64(goroutines) {
		t.Errorf("AddBatchOpts at %d workers on a warmed sketch: %v allocs per run, want at most %d (its goroutines)",
			w, allocs, goroutines)
	}
}

// TestMSFAddUpdateAllocs: the per-update path (a batch of one through
// the class partition and every covering prefix sketch) allocates
// nothing once the tails it touches exist.
func TestMSFAddUpdateAllocs(t *testing.T) {
	m := NewMSF(3, 64, 16, 1)
	u := stream.Update{U: 3, V: 9, W: 5, Delta: 1}
	m.AddUpdate(u)
	if allocs := testing.AllocsPerRun(20, func() { m.AddUpdate(u) }); allocs != 0 {
		t.Errorf("MSF.AddUpdate on a warmed sketch: %v allocs per run, want 0", allocs)
	}
}

// TestRequeryAllocs budgets a warmed cached re-query on the serving
// benchmarks' shapes (n = 10 000; 56 updates since the previous query
// for serve-fresh, 1 638 for serve-churn), the AddBatch between queries
// included: the re-query repairs the trace in place and allocates only
// the forest it returns, so what is left is AddBatch's tail growths.
// Readings (allocations, KB per query): fresh 22 180 and 5.5 MB with
// map-based component bookkeeping, then 1 884 and 1 486 with a fresh
// level instance and peel map per Sample, 286 and 1 411 with the
// worker's scratch, 216 and 1 252 summing only the levels a sample
// reads, 202 and 1 241 with a per-component pick cache, 86 and 436
// repairing the trace (87 under -race); churn 24 624 and 8 862, then
// 3 801 and 5 865, then 3 028 and 4 709, 3 017 and 4 708 with the pick
// cache, 1 965 and 3 845 repairing the trace (the same under -race).
// The budgets are the last readings plus 25 %.
func TestRequeryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n = 10 000 sketch")
	}
	for _, row := range []struct {
		name            string
		perQuery        int
		allocs, kbudget uint64
	}{
		{"serve-fresh", 56, 108, 545},
		{"serve-churn", 1638, 2456, 4806},
	} {
		const n, queries = 10000, 10
		preload, churn := serveShape(n, 20000, 20000, (queries+4)*row.perQuery/2, 11)
		s := New(5, n, Config{})
		s.EnableDecodeCache(true)
		s.AddBatch(preload)
		p := parallel.Default()
		query := func() {
			if _, err := s.SpanningForestOpts(nil, p); err != nil {
				t.Fatal(err)
			}
			s.AddBatch(churn[:row.perQuery])
			churn = churn[row.perQuery:]
		}
		for i := 0; i < 4; i++ {
			query()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < queries; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		// AddBatch grows a few sampler tails per batch; that is inside the
		// budget's slack.
		allocs := (after.Mallocs - before.Mallocs) / queries
		kb := (after.TotalAlloc - before.TotalAlloc) / queries >> 10
		if allocs > row.allocs || kb > row.kbudget {
			t.Errorf("%s: warmed re-query: %d allocs, %d KB per query; budget %d allocs, %d KB",
				row.name, allocs, kb, row.allocs, row.kbudget)
		}
		t.Logf("%s: warmed re-query: %d allocs, %d KB per query", row.name, allocs, kb)
	}
}
