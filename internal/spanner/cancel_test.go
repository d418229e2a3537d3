package spanner

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// cancelAfter returns a serial policy whose context is cancelled when
// its tracer ends a span of the given phase.
func cancelAfter(phase string) *parallel.Policy {
	ctx, cancel := context.WithCancel(context.Background())
	tr := obs.New()
	tr.OnSpanEnd(func(e obs.Event) {
		if e.Phase == phase {
			cancel()
		}
	})
	return parallel.NewPolicy(ctx, 1, 0, nil).WithTracer(tr)
}

// TestDecodeCancel cancels the spanner's decodes from their own trace
// spans. Cancelled after the first cluster level, EndPass1Opts and
// QueryLive stop before the next level's first center; cancelled after
// the last level, FinishOpts and QueryLive stop before the first
// terminal's recovery. A live state whose queries were cancelled still
// answers the next query exactly as a cold build does.
func TestDecodeCancel(t *testing.T) {
	const n = 120
	cfg := Config{K: 3, Seed: 41, CollectAugmented: true}
	rng := rand.New(rand.NewSource(5))
	edges := func(m int) []stream.Update {
		var ups []stream.Update
		for i := 0; i < m; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				ups = append(ups, stream.Update{U: u, V: v, Delta: 1})
			}
		}
		return ups
	}
	ups := edges(500)
	const first, last = "spanner/cluster/level00", "spanner/cluster/level01"

	t.Run("EndPass1Opts", func(t *testing.T) {
		tp := NewTwoPass(n, cfg)
		if err := tp.Pass1AddBatch(ups); err != nil {
			t.Fatal(err)
		}
		if err := tp.EndPass1Opts(cancelAfter(first)); !errors.Is(err, context.Canceled) {
			t.Fatalf("EndPass1Opts cancelled after %s returned %v", first, err)
		}
	})

	t.Run("FinishOpts", func(t *testing.T) {
		tp := NewTwoPass(n, cfg)
		if err := tp.Pass1AddBatch(ups); err != nil {
			t.Fatal(err)
		}
		p := cancelAfter(last)
		if err := tp.EndPass1Opts(p); err != nil {
			t.Fatalf("EndPass1Opts: the last level completes before the cancellation, got %v", err)
		}
		if err := tp.Pass2AddBatch(ups); err != nil {
			t.Fatal(err)
		}
		if _, err := tp.FinishOpts(p); !errors.Is(err, context.Canceled) {
			t.Fatalf("FinishOpts after a cancellation returned %v", err)
		}
	})

	t.Run("QueryLive", func(t *testing.T) {
		live := NewTwoPass(n, cfg)
		if err := live.StartLive(memStream(t, n, ups)); err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{first, last} {
			if _, err := live.QueryLive(cancelAfter(phase)); !errors.Is(err, context.Canceled) {
				t.Fatalf("QueryLive cancelled after %s returned %v", phase, err)
			}
		}
		batch := edges(8)
		if err := live.ApplyLive(batch); err != nil {
			t.Fatal(err)
		}
		got, err := live.QueryLive(parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildTwoPassOpts(memStream(t, n, append(ups, batch...)), cfg, parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(got.Spanner, want.Spanner) || !graphsEqual(got.Augmented, want.Augmented) {
			t.Fatal("the query after two cancelled ones diverged from a cold build")
		}
	})
}
