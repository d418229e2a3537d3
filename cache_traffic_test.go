package dynstream_test

import (
	"context"
	"testing"

	"dynstream"
	"dynstream/internal/graph"
)

// TestLiveCacheTraffic pins the decode-cache hits and misses of a fixed
// Apply/Query script over a live handle of every target that caches.
// The counts are a function of which regions each query re-decodes, so
// a change to the cache keys that decodes more (or serves a stale
// entry) moves them even when every answer stays bit-identical; for
// k-connectivity and the additive spanner they also pin that each
// query's edge subtraction touches exactly the samplers its difference
// names. The spanner and sparsifier counts were recorded with
// string-digest cache keys, before the keys became member lists and
// generation sums indexed by copy. The forest, kcert, bipartite and msf
// counts were re-pinned when a logged update began to dirty a component
// only when it crosses the component's boundary at or above the level
// the component's last draw decoded at: every query's hits + misses
// stayed the same, and the misses fell.
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
		{"spanner", cacheTraffic(t, base, rest, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 3, Seed: 9102}}, nil),
			dynstream.CacheStats{Hits: 234, Misses: 153}},
		{"sparsifier", cacheTraffic(t, base, rest, dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
			K: 2, Z: 2, Seed: 9103,
			Estimate: dynstream.EstimateConfig{K: 2, J: 2, T: 3, Seed: 9104},
		}}, nil), dynstream.CacheStats{Hits: 10775, Misses: 3628}},
		{"forest", cacheTraffic(t, base, rest, dynstream.ForestTarget{Seed: 9107}, func(s *dynstream.ForestSketch) error {
			_, err := s.SpanningForest(nil)
			return err
		}), dynstream.CacheStats{Hits: 197, Misses: 112}},
		{"kcert", cacheTraffic(t, base, rest, dynstream.KConnectivityTarget{Seed: 9105, K: 3}, func(kc *dynstream.KConnectivity) error {
			_, err := kc.Certificate()
			return err
		}), dynstream.CacheStats{Hits: 649, Misses: 409}},
		{"bipartite", cacheTraffic(t, base, rest, dynstream.BipartitenessTarget{Seed: 9108}, func(b *dynstream.Bipartiteness) error {
			_, err := b.IsBipartite()
			return err
		}), dynstream.CacheStats{Hits: 619, Misses: 335}},
		{"msf", cacheTraffic(t, base, rest, dynstream.MSFTarget{Seed: 9109, WMax: 8, Gamma: 0.5}, func(m *dynstream.MSF) error {
			_, err := m.Forest()
			return err
		}), dynstream.CacheStats{Hits: 219, Misses: 110}},
		{"additive", cacheTraffic(t, base, rest, dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 2, Seed: 9106}}, nil),
			dynstream.CacheStats{Hits: 258, Misses: 222}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

// cacheTraffic opens a handle over base and runs the script: query,
// re-query unchanged, then four batches of rest of shrinking size, each
// followed by one query. A query runs decode (when not nil) on the
// result inside QueryView, where the sketch targets decode. It returns
// the handle's cache counters.
func cacheTraffic[R any](t *testing.T, base *dynstream.MemoryStream, rest []dynstream.Update, target dynstream.Target[R], decode func(R) error) dynstream.CacheStats {
	t.Helper()
	ctx := context.Background()
	h, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		t.Helper()
		err := h.QueryView(ctx, func(r R, _ int64) error {
			if decode == nil {
				return nil
			}
			return decode(r)
		})
		if err != nil {
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
