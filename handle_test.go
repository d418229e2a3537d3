package dynstream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// Seeded Apply/Query interleaving matrix for live handles: after every
// applied batch, a handle's incremental, cache-served query must be
// bit-identical to a cold Build over the base stream plus every batch
// so far — for all seven targets, at 1/2/4/8 decode workers, over
// random and churned streams. `go test -race` doubles as the data-race
// gate for the dirty-subset decode fan-out.

const handleRounds = 4

// handleStream generates a churned stream and splits it into a base
// prefix (what Open ingests) and handleRounds apply batches. The full
// stream is a valid update sequence, and splitting preserves order, so
// every prefix the matrix rebuilds is valid too.
func handleStream(t *testing.T, seed uint64) (base *dynstream.MemoryStream, batches [][]dynstream.Update) {
	t.Helper()
	g := graph.ConnectedGNP(48, 0.12, seed)
	for i := 0; i < g.N(); i++ {
		g.AddEdge(i, (i+5)%g.N(), float64(1+i%6))
	}
	full := dynstream.StreamWithChurn(g, 300, seed+1)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	cut := len(ups) / 2
	base = dynstream.NewMemoryStream(full.N())
	appendAll(t, base, ups[:cut])
	rest := ups[cut:]
	per := (len(rest) + handleRounds - 1) / handleRounds
	for i := 0; i < len(rest); i += per {
		end := i + per
		if end > len(rest) {
			end = len(rest)
		}
		batches = append(batches, rest[i:end])
	}
	return base, batches
}

func appendAll(t *testing.T, st *dynstream.MemoryStream, ups []dynstream.Update) {
	t.Helper()
	for _, u := range ups {
		if err := st.Append(u); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneStream copies a MemoryStream so the cold-rebuild cumulative
// stream can grow without touching the handle's base stream.
func cloneStream(t *testing.T, st *dynstream.MemoryStream) *dynstream.MemoryStream {
	t.Helper()
	out := dynstream.NewMemoryStream(st.N())
	if err := st.Replay(func(u dynstream.Update) error { return out.Append(u) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// runHandleMatrix drives one target through the interleaving matrix:
// Open on the base stream, then per round Query (incremental) and diff
// against cold(cum) (a from-scratch rebuild over the cumulative
// stream), then Apply the next batch. The final round checkpoints the
// handle, restores it over the same base stream and queries the
// restored handle, whose caches start empty — a cold in-handle decode
// must agree too.
func runHandleMatrix[R, X any](
	t *testing.T, seed uint64, w int, target dynstream.Target[R],
	decode func(r R, w int) (X, error),
	cold func(cum *dynstream.MemoryStream) (X, error),
	equal func(t *testing.T, round int, got, want X),
) {
	t.Helper()
	ctx := context.Background()
	base, batches := handleStream(t, seed)
	h, err := dynstream.Open(ctx, base, target, dynstream.WithDecodeWorkers(w))
	if err != nil {
		t.Fatal(err)
	}
	cum := cloneStream(t, base)
	check := func(round int) {
		t.Helper()
		want, err := cold(cum)
		if err != nil {
			t.Fatalf("round %d: cold rebuild: %v", round, err)
		}
		// The immediate re-query takes the all-cache-hits path and must
		// reproduce the same result.
		for _, what := range []string{"query", "re-query"} {
			r, err := h.Query(ctx)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, what, err)
			}
			got, err := decode(r, w)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, what, err)
			}
			equal(t, round, got, want)
		}
	}
	check(0)
	for i, b := range batches {
		if err := h.Apply(b); err != nil {
			t.Fatalf("round %d: apply: %v", i+1, err)
		}
		appendAll(t, cum, b)
		check(i + 1)
	}
	h = restoreHandle(t, h, base, target, w)
	check(len(batches))
}

// restoreHandle checkpoints h and restores it over base at w decode
// workers.
func restoreHandle[R any](t *testing.T, h *dynstream.Handle[R], base *dynstream.MemoryStream, target dynstream.Target[R], w int) *dynstream.Handle[R] {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := dynstream.Restore(context.Background(), &buf, base, target, dynstream.WithDecodeWorkers(w))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// itself is the decode of targets whose query result is the answer.
func itself[X any](x X, _ int) (X, error) { return x, nil }

func TestHandleForestMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.ForestTarget{Seed: 8101}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8100, w, target,
				func(sk *dynstream.ForestSketch, w int) ([]graph.Edge, error) {
					return sk.SpanningForestOpts(nil, parallel.Default().WithWorkers(w))
				},
				func(cum *dynstream.MemoryStream) ([]graph.Edge, error) {
					sk, err := dynstream.Build(ctx, cum, target)
					if err != nil {
						return nil, err
					}
					return sk.SpanningForest(nil)
				},
				func(t *testing.T, round int, got, want []graph.Edge) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: incremental forest diverged from cold rebuild:\n got %v\nwant %v", round, got, want)
					}
				})
		})
	}
}

func TestHandleKConnectivityMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.KConnectivityTarget{Seed: 8201, K: 3}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8200, w, target,
				func(kc *dynstream.KConnectivity, w int) ([][]graph.Edge, error) {
					return kc.CertificateOpts(parallel.Default().WithWorkers(w))
				},
				func(cum *dynstream.MemoryStream) ([][]graph.Edge, error) {
					kc, err := dynstream.Build(ctx, cum, target)
					if err != nil {
						return nil, err
					}
					return kc.Certificate()
				},
				func(t *testing.T, round int, got, want [][]graph.Edge) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: incremental certificate diverged from cold rebuild", round)
					}
				})
		})
	}
}

func TestHandleBipartitenessMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.BipartitenessTarget{Seed: 8301}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8300, w, target,
				func(b *dynstream.Bipartiteness, w int) (bool, error) {
					return b.IsBipartiteOpts(parallel.Default().WithWorkers(w))
				},
				func(cum *dynstream.MemoryStream) (bool, error) {
					b, err := dynstream.Build(ctx, cum, target)
					if err != nil {
						return false, err
					}
					return b.IsBipartite()
				},
				func(t *testing.T, round int, got, want bool) {
					t.Helper()
					if got != want {
						t.Fatalf("round %d: incremental verdict %v, cold rebuild %v", round, got, want)
					}
				})
		})
	}
}

func TestHandleMSFMatrix(t *testing.T) {
	ctx := context.Background()
	// Live MSF needs an explicit WMax; handleStream weights are ≤ 6.
	target := dynstream.MSFTarget{Seed: 8401, WMax: 8, Gamma: 0.5}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8400, w, target,
				func(m *dynstream.MSF, w int) ([]graph.Edge, error) {
					return m.ForestOpts(parallel.Default().WithWorkers(w))
				},
				func(cum *dynstream.MemoryStream) ([]graph.Edge, error) {
					m, err := dynstream.Build(ctx, cum, target)
					if err != nil {
						return nil, err
					}
					return m.Forest()
				},
				func(t *testing.T, round int, got, want []graph.Edge) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: incremental msf diverged from cold rebuild:\n got %v\nwant %v", round, got, want)
					}
				})
		})
	}
}

func TestHandleSpannerMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{
		K: 3, Seed: 8501, CollectAugmented: true,
	}}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8500, w, target, itself[*dynstream.SpannerResult],
				func(cum *dynstream.MemoryStream) (*dynstream.SpannerResult, error) {
					return dynstream.Build(ctx, cum, target)
				},
				func(t *testing.T, round int, got, want *dynstream.SpannerResult) {
					t.Helper()
					edgesEqual(t, fmt.Sprintf("round %d spanner", round), got.Spanner, want.Spanner)
					edgesEqual(t, fmt.Sprintf("round %d augmented", round), got.Augmented, want.Augmented)
					if got.Terminals != want.Terminals || !reflect.DeepEqual(got.Stats, want.Stats) {
						t.Fatalf("round %d: stats differ: %+v vs %+v", round, got.Stats, want.Stats)
					}
				})
		})
	}
}

func TestHandleAdditiveMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 4, Seed: 8601}}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			runHandleMatrix(t, 8600, w, target, itself[*dynstream.AdditiveResult],
				func(cum *dynstream.MemoryStream) (*dynstream.AdditiveResult, error) {
					return dynstream.Build(ctx, cum, target)
				},
				func(t *testing.T, round int, got, want *dynstream.AdditiveResult) {
					t.Helper()
					edgesEqual(t, fmt.Sprintf("round %d additive", round), got.Spanner, want.Spanner)
				})
		})
	}
}

func TestHandleSparsifierMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
		K: 1, Z: 4, Seed: 8701,
		Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 8702},
	}}
	// The sparsifier matrix grows a complete graph edge by edge: the
	// base stream is a prefix of the insertions and each batch extends
	// it, so every cold rebuild is a valid stream.
	g := graph.Complete(10)
	full := dynstream.StreamFromGraph(g, 8700)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	cut := len(ups) * 3 / 5
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			base := dynstream.NewMemoryStream(full.N())
			appendAll(t, base, ups[:cut])
			h, err := dynstream.Open(ctx, base, target, dynstream.WithDecodeWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			cum := cloneStream(t, base)
			rest := ups[cut:]
			per := (len(rest) + 2) / 3
			restored := false
			for round := 0; ; round++ {
				got, err := h.Query(ctx)
				if err != nil {
					t.Fatalf("round %d: query: %v", round, err)
				}
				want, err := dynstream.Build(ctx, cum, target)
				if err != nil {
					t.Fatalf("round %d: cold rebuild: %v", round, err)
				}
				edgesEqual(t, fmt.Sprintf("round %d sparsifier", round), got.Sparsifier, want.Sparsifier)
				if len(rest) == 0 {
					if restored {
						break
					}
					// Last round again on a restored handle: a cold
					// in-handle decode must agree too.
					h, restored = restoreHandle(t, h, base, target, w), true
					continue
				}
				end := per
				if end > len(rest) {
					end = len(rest)
				}
				if err := h.Apply(rest[:end]); err != nil {
					t.Fatalf("round %d: apply: %v", round, err)
				}
				appendAll(t, cum, rest[:end])
				rest = rest[end:]
			}
		})
	}
}

// TestHandleMergeDirtiesExactlyTouchedComponents pins the Merge
// invalidation contract: folding a shipped SKETCH blob into a live
// handle must log exactly the vertices the blob touched — so cached
// decodes of untouched components survive and the touched ones are
// re-decoded — while every query stays bit-identical to a cold build
// over the union of both streams.
func TestHandleMergeDirtiesExactlyTouchedComponents(t *testing.T) {
	ctx := context.Background()
	const n = 40
	target := dynstream.ForestTarget{Seed: 8801}

	// Shard A: a star centred at 0 over 0..19 without 5. Shard B: a star
	// centred at 30 over 20..39 and 5 — B touches the low half only at 5.
	// Every leaf has one edge, so each round's components are known.
	a := dynstream.NewMemoryStream(n)
	for v := 1; v < 20; v++ {
		if v != 5 {
			appendAll(t, a, []dynstream.Update{{U: 0, V: v, Delta: 1, W: 1}})
		}
	}
	b := dynstream.NewMemoryStream(n)
	for v := 20; v < 40; v++ {
		if v != 30 {
			appendAll(t, b, []dynstream.Update{{U: 30, V: v, Delta: 1, W: 1}})
		}
	}
	appendAll(t, b, []dynstream.Update{{U: 5, V: 30, Delta: 1, W: 1}})

	h, err := dynstream.Open(ctx, a, target)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := h.Query(ctx) // warm the decode cache over shard A
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.SpanningForest(nil); err != nil {
		t.Fatal(err)
	}

	// Ship shard B the way dynnet does: build, marshal, unmarshal into
	// a fresh sketch, merge into the handle.
	bsk, err := dynstream.Build(ctx, b, target)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bsk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := dynstream.NewForestSketch(8801, n, dynstream.ForestConfig{})
	if err := fresh.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(fresh); err != nil {
		t.Fatal(err)
	}

	// Round 0 decodes the 40 singletons: the 19 of A's star hit, while
	// 5 and 20..39 — singletons before the merge too, and touched by it
	// — miss. Round 1 decodes the two stars: A's, untouched and over the
	// member list it had, hits; B's (5, 30 and the rest of B) misses.
	// Neither star has a boundary edge, so the decode stops there.
	h0, m0 := sk.DecodeCacheStats()
	got, err := sk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := sk.DecodeCacheStats(); h1-h0 != 20 || m1-m0 != 22 {
		t.Fatalf("post-merge query: %d hits / %d misses, want 20 / 22", h1-h0, m1-m0)
	}

	// The post-merge query must match a cold build over A + B.
	union := cloneStream(t, a)
	if err := b.Replay(func(u dynstream.Update) error { return union.Append(u) }); err != nil {
		t.Fatal(err)
	}
	coldSk, err := dynstream.Build(ctx, union, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldSk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-merge forest diverged from cold union build:\n got %v\nwant %v", got, want)
	}

	// And an Apply after the Merge keeps the handle exact.
	extra := []dynstream.Update{{U: 0, V: 39, Delta: 1, W: 1}}
	if err := h.Apply(extra); err != nil {
		t.Fatal(err)
	}
	appendAll(t, union, extra)
	got, err = sk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	coldSk, err = dynstream.Build(ctx, union, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err = coldSk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-merge apply diverged from cold union build:\n got %v\nwant %v", got, want)
	}
}

// TestHandleMergeRemoteBlob drives the dynnet coordinator path into a
// live handle: one shard is built on real protocol workers (worker
// SKETCH blobs tree-merged by the coordinator), the result is merged
// into a handle holding the other shard, and queries before and after
// another Apply must match cold builds over the whole stream.
func TestHandleMergeRemoteBlob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	target := dynstream.ForestTarget{Seed: 8901}
	full := remoteTestStream(t)
	shards, err := stream.Split(full, 2)
	if err != nil {
		t.Fatal(err)
	}

	h, err := dynstream.Open(ctx, shards[0], target)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := h.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.SpanningForest(nil); err != nil { // warm the cache pre-merge
		t.Fatal(err)
	}

	addrs := startWorkers(t, ctx, 2)
	cluster, err := dynstream.DialWorkers(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	remote, err := dynstream.Build(ctx, shards[1], target, dynstream.WithRemoteCluster(cluster))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(remote); err != nil {
		t.Fatal(err)
	}

	got, err := sk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	coldSk, err := dynstream.Build(ctx, full, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldSk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("handle + coordinator-built merge diverged from cold full build")
	}
}

func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	st := dynstream.NewMemoryStream(8)
	forest := dynstream.ForestTarget{Seed: 1}

	if _, err := dynstream.Open(ctx, st, forest, dynstream.WithRemoteWorkers("unix:/nope")); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("remote option: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Open(ctx, st, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}},
		dynstream.WithWeightClasses(2)); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("weight classes: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Open(ctx, st, dynstream.MSFTarget{Seed: 1, Gamma: 0.5}); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("msf without WMax: got %v, want ErrBadConfig", err)
	}
	ch := make(chan dynstream.Update)
	close(ch)
	if _, err := dynstream.Open(ctx, dynstream.NewChannelSource(8, ch),
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}}); !errors.Is(err, dynstream.ErrNotReplayable) {
		t.Fatalf("spanner over channel: got %v, want ErrNotReplayable", err)
	}

	h, err := dynstream.Open(ctx, st, forest)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply([]dynstream.Update{{U: -1, V: 2, Delta: 1}}); err == nil {
		t.Fatal("Apply accepted an out-of-range update")
	}
	if err := h.Merge("not a sketch"); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("merge of wrong type: got %v, want ErrBadConfig", err)
	}

	sp, err := dynstream.Open(ctx, st, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Merge(spanner.NewTwoPass(8, spanner.Config{K: 2, Seed: 1})); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("two-pass merge: got %v, want ErrBadConfig", err)
	}
}
