package sparsify

import (
	"math/rand"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

func liveMemStream(t *testing.T, n int, ups []stream.Update) *stream.MemoryStream {
	t.Helper()
	ms := stream.NewMemoryStream(n)
	for _, u := range ups {
		if err := ms.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	return ms
}

func sparsifiersEqual(a, b *graph.Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// TestLiveSparsifyBitIdentical interleaves churn with live queries and
// checks every query against a cold from-scratch Sparsify over the
// same total stream, at several worker counts.
func TestLiveSparsifyBitIdentical(t *testing.T) {
	const n = 48
	cfg := Config{
		K: 2, Z: 2, H: 4, Seed: 7,
		Estimate: EstimateConfig{J: 2, T: 4},
	}
	rng := rand.New(rand.NewSource(41))

	var base []stream.Update
	for i := 0; i < 220; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		base = append(base, stream.Update{U: u, V: v, Delta: 1})
	}
	live, err := StartLive(liveMemStream(t, n, base), cfg)
	if err != nil {
		t.Fatal(err)
	}

	total := append([]stream.Update(nil), base...)
	for round := 0; round < 3; round++ {
		for _, workers := range []int{1, 2, 4} {
			p := parallel.Default().WithWorkers(workers)
			got, err := live.QueryLive(p)
			if err != nil {
				t.Fatalf("round %d workers %d: live: %v", round, workers, err)
			}
			want, err := SparsifyOpts(liveMemStream(t, n, total), cfg, parallel.Default())
			if err != nil {
				t.Fatalf("round %d workers %d: cold: %v", round, workers, err)
			}
			if !sparsifiersEqual(got.Sparsifier, want.Sparsifier) {
				t.Fatalf("round %d workers %d: live sparsifier diverged from cold build", round, workers)
			}
			if got.Samples != want.Samples || got.SpaceWords != want.SpaceWords {
				t.Fatalf("round %d workers %d: diagnostics diverged: %d/%d vs %d/%d",
					round, workers, got.Samples, got.SpaceWords, want.Samples, want.SpaceWords)
			}
		}
		// Churn: delete a few base edges, insert a few fresh ones.
		var batch []stream.Update
		for j := 0; j < 3; j++ {
			e := base[rng.Intn(len(base))]
			batch = append(batch, stream.Update{U: e.U, V: e.V, Delta: -e.Delta})
		}
		for j := 0; j < 3; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			batch = append(batch, stream.Update{U: u, V: v, Delta: 1})
		}
		if err := live.ApplyLive(batch); err != nil {
			t.Fatal(err)
		}
		total = append(total, batch...)
	}
}

// TestLiveSparsifyRoutesDirtyOnly checks that Apply touches only the
// states whose subsampled edge sets contain the updates: re-querying
// after an empty apply re-decodes nothing, and the output is stable.
func TestLiveSparsifyRoutesDirtyOnly(t *testing.T) {
	const n = 32
	cfg := Config{
		K: 2, Z: 2, H: 3, Seed: 19,
		Estimate: EstimateConfig{J: 2, T: 3},
	}
	var ups []stream.Update
	for v := 1; v < n; v++ {
		ups = append(ups, stream.Update{U: v - 1, V: v, Delta: 1})
		if (v*7)%n != v {
			ups = append(ups, stream.Update{U: (v * 7) % n, V: v, Delta: 1})
		}
	}
	live, err := StartLive(liveMemStream(t, n, ups), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := parallel.Default()
	first, err := live.QueryLive(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.ApplyLive(nil); err != nil {
		t.Fatal(err)
	}
	again, err := live.QueryLive(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sparsifiersEqual(first.Sparsifier, again.Sparsifier) {
		t.Fatal("re-query of unchanged live sparsifier diverged")
	}
}
