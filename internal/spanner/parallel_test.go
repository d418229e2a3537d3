package spanner

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// The parallel builders promise output *identical* to serial ingestion
// — not just equivalent — because every sketch operation is a
// commutative group operation. These tests pin that guarantee on
// seeded random graphs and churn streams, across worker counts, and
// are meant to run under -race (workers sweep table ranges of one
// state concurrently, and the additive shards replay concurrently).

func sameGraph(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d edges vs %d serial", name, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: edge %d differs: %+v vs serial %+v", name, i, ea[i], eb[i])
		}
	}
}

func TestTwoPassParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   stream.Stream
		k    int
	}{
		{"gnp-k2", stream.FromGraph(graph.ConnectedGNP(64, 0.1, 21), 22), 2},
		{"churn-k2", stream.WithChurn(graph.ConnectedGNP(48, 0.12, 23), 300, 24), 2},
		{"churn-k1", stream.WithChurn(graph.ConnectedGNP(40, 0.15, 25), 200, 26), 1},
		{"churn-k3", stream.WithChurn(graph.ConnectedGNP(56, 0.1, 27), 150, 28), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: tc.k, Seed: 77}
			serial, err := BuildTwoPass(tc.st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				par, err := BuildTwoPassOpts(tc.st, cfg, parallel.Default().WithWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameGraph(t, tc.name, par.Spanner, serial.Spanner)
				if par.SpaceWords != serial.SpaceWords {
					t.Errorf("workers=%d: space %d vs serial %d", workers, par.SpaceWords, serial.SpaceWords)
				}
				if par.Terminals != serial.Terminals {
					t.Errorf("workers=%d: terminals %d vs serial %d", workers, par.Terminals, serial.Terminals)
				}
			}
		})
	}
}

func TestTwoPassParallelAugmented(t *testing.T) {
	st := stream.WithChurn(graph.ConnectedGNP(40, 0.12, 31), 120, 32)
	cfg := Config{K: 2, Seed: 33, CollectAugmented: true}
	serial, err := BuildTwoPass(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildTwoPassOpts(st, cfg, parallel.Default().WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "augmented", par.Augmented, serial.Augmented)
}

// buildAdditiveOpts is a sharded additive build, the way states from
// separate servers combine: same-seeded states per shard, merged, then
// decoded.
func buildAdditiveOpts(src stream.Source, cfg AdditiveConfig, p *parallel.Policy) (*AdditiveResult, error) {
	a, err := parallel.IngestOpts(p, src,
		func() (*Additive, error) { return NewAdditive(src.N(), cfg), nil },
		(*Additive).AddBatch, (*Additive).Merge)
	if err != nil {
		return nil, err
	}
	return a.FinishOpts(p)
}

func TestAdditiveParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   stream.Stream
		cfg  AdditiveConfig
	}{
		{"gnp-d3", stream.FromGraph(graph.ConnectedGNP(60, 0.15, 41), 42), AdditiveConfig{D: 3, Seed: 43}},
		{"churn-d4", stream.WithChurn(graph.ConnectedGNP(50, 0.2, 44), 250, 45), AdditiveConfig{D: 4, Seed: 46}},
		{"churn-f0", stream.WithChurn(graph.ConnectedGNP(40, 0.2, 47), 150, 48),
			AdditiveConfig{D: 3, Seed: 49, UseF0Degree: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := BuildAdditive(tc.st, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := buildAdditiveOpts(tc.st, tc.cfg, parallel.Default().WithWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameGraph(t, tc.name, par.Spanner, serial.Spanner)
				if par.Centers != serial.Centers || par.LowDegree != serial.LowDegree {
					t.Errorf("workers=%d: centers/lowdeg %d/%d vs serial %d/%d",
						workers, par.Centers, par.LowDegree, serial.Centers, serial.LowDegree)
				}
			}
		})
	}
}

func TestParallelRejectsBadWorkers(t *testing.T) {
	st := stream.FromGraph(graph.ConnectedGNP(10, 0.4, 51), 52)
	if _, err := BuildTwoPassOpts(st, Config{K: 2, Seed: 1}, parallel.Default().WithWorkers(0)); err == nil {
		t.Error("BuildTwoPassOpts accepted workers=0")
	}
	if _, err := buildAdditiveOpts(st, AdditiveConfig{D: 2, Seed: 1}, parallel.Default().WithWorkers(-1)); err == nil {
		t.Error("additive ingest accepted workers=-1")
	}
}

func TestMergeMisuse(t *testing.T) {
	n := 16
	a := NewTwoPass(n, Config{K: 2, Seed: 61})
	b := NewTwoPass(n, Config{K: 2, Seed: 62}) // different seed
	if err := a.MergePass1(b); err == nil {
		t.Error("MergePass1 accepted mismatched seeds")
	}
	c := NewTwoPass(n, Config{K: 2, Seed: 61})
	if err := a.EndPass1(); err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass1(c); err == nil {
		t.Error("MergePass1 accepted phase-1 receiver")
	}
	if err := a.MergePass2(c); err == nil {
		t.Error("MergePass2 accepted phase-0 argument")
	}
	if _, err := c.ForkPass2(); err == nil {
		t.Error("ForkPass2 accepted phase-0 receiver")
	}
	w, err := a.ForkPass2()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass2(w); err != nil {
		t.Errorf("MergePass2 of forked worker: %v", err)
	}

	x := NewAdditive(n, AdditiveConfig{D: 2, Seed: 63})
	y := NewAdditive(n, AdditiveConfig{D: 2, Seed: 64})
	if err := x.Merge(y); err == nil {
		t.Error("Additive.Merge accepted mismatched seeds")
	}
	z := NewAdditive(n, AdditiveConfig{D: 2, Seed: 63})
	if _, err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := x.Merge(z); err == nil {
		t.Error("Additive.Merge accepted finished receiver")
	}
}
