package dynstream_test

import (
	"context"
	"testing"

	"dynstream"
	"dynstream/internal/graph"
)

// TestLiveCacheTraffic pins the decode-cache hits and misses of a fixed
// Apply/Query script over a live spanner and a live sparsifier. The
// counts are a function of which regions each query re-decodes, so a
// change to the cache keys that decodes more (or serves a stale entry)
// moves them even when every answer stays bit-identical. The counts
// were recorded with string-digest cache keys, before the keys became
// member lists and generation sums indexed by copy.
func TestLiveCacheTraffic(t *testing.T) {
	full := dynstream.StreamWithChurn(graph.ConnectedGNP(40, 0.15, 9100), 120, 9101)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	base := dynstream.NewMemoryStream(full.N())
	appendAll(t, base, ups[:len(ups)/2])
	rest := ups[len(ups)/2:]

	for _, tc := range []struct {
		name      string
		got, want dynstream.CacheStats
	}{
		{"spanner", cacheTraffic(t, base, rest, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 3, Seed: 9102}}),
			dynstream.CacheStats{Hits: 234, Misses: 153}},
		{"sparsifier", cacheTraffic(t, base, rest, dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
			K: 2, Z: 2, Seed: 9103,
			Estimate: dynstream.EstimateConfig{K: 2, J: 2, T: 3, Seed: 9104},
		}}), dynstream.CacheStats{Hits: 10775, Misses: 3628}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

// cacheTraffic opens a handle over base and runs the script: query,
// re-query unchanged, then four batches of rest of shrinking size, each
// followed by one query. It returns the handle's cache counters.
func cacheTraffic[R any](t *testing.T, base *dynstream.MemoryStream, rest []dynstream.Update, target dynstream.Target[R]) dynstream.CacheStats {
	t.Helper()
	ctx := context.Background()
	h, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		t.Helper()
		if _, err := h.Query(ctx); err != nil {
			t.Fatal(err)
		}
	}
	query()
	query()
	for _, size := range []int{len(rest) / 2, 16, 4, 1} {
		size = min(size, len(rest))
		if err := h.Apply(rest[:size]); err != nil {
			t.Fatal(err)
		}
		rest = rest[size:]
		query()
	}
	return h.DecodeCacheStats()
}
