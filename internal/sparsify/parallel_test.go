package sparsify

import (
	"bytes"
	"strings"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

func TestEstimatorParallelMatchesSerial(t *testing.T) {
	g := graph.Complete(12)
	st := stream.FromGraph(g, 101)
	cfg := EstimateConfig{K: 1, J: 3, T: 6, Delta: 0.34, Seed: 102}

	serial, err := NewEstimator(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := NewEstimatorOpts(st, cfg, parallel.Default().WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.SpaceWords() != serial.SpaceWords() {
			t.Errorf("workers=%d: space %d vs serial %d", workers, par.SpaceWords(), serial.SpaceWords())
		}
		// The robust-connectivity estimate is the estimator's entire
		// query surface; it must agree on every pair.
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if pe, se := par.QExp(u, v), serial.QExp(u, v); pe != se {
					t.Fatalf("workers=%d: QExp(%d,%d) = %d vs serial %d", workers, u, v, pe, se)
				}
			}
		}
	}
}

// TestSparsifyParallelMatchesSerial: the one-grid build equals the
// serial reference at every worker count, over a memory stream and over
// a single-cursor file source; either way both passes sweep cell ranges
// of the one grid.
func TestSparsifyParallelMatchesSerial(t *testing.T) {
	g := graph.Complete(12)
	st := stream.FromGraph(g, 105)
	cfg := Config{
		K: 1, Z: 8, Seed: 106,
		Estimate: EstimateConfig{K: 1, J: 2, T: 6, Delta: 0.34, Seed: 107},
	}
	serial, err := Sparsify(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, st); err != nil {
		t.Fatal(err)
	}
	file, err := stream.NewReaderSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []stream.Source{st, file} {
		for _, workers := range []int{1, 2, 4} {
			par, err := SparsifyOpts(src, cfg, parallel.Default().WithWorkers(workers))
			if err != nil {
				t.Fatalf("%T workers=%d: %v", src, workers, err)
			}
			if par.Samples != serial.Samples || par.SpaceWords != serial.SpaceWords {
				t.Errorf("%T workers=%d: samples/space %d/%d vs serial %d/%d",
					src, workers, par.Samples, par.SpaceWords, serial.Samples, serial.SpaceWords)
			}
			pe, se := par.Sparsifier.Edges(), serial.Sparsifier.Edges()
			if len(pe) != len(se) {
				t.Fatalf("%T workers=%d: %d edges vs serial %d", src, workers, len(pe), len(se))
			}
			for i := range pe {
				// Bit-identical weights: the parallel path averages in the
				// serial iteration order.
				if pe[i] != se[i] {
					t.Fatalf("%T workers=%d: edge %d = %+v vs serial %+v", src, workers, i, pe[i], se[i])
				}
			}
		}
	}
}

func TestSparsifyParallelRejectsBadWorkers(t *testing.T) {
	st := stream.FromGraph(graph.Complete(6), 108)
	if _, err := SparsifyOpts(st, Config{K: 1, Z: 2, Seed: 1}, parallel.Default().WithWorkers(0)); err == nil {
		t.Error("SparsifyOpts accepted workers=0")
	}
	if _, err := NewEstimatorOpts(st, EstimateConfig{K: 1, Seed: 1}, parallel.Default().WithWorkers(-2)); err == nil {
		t.Error("NewEstimatorOpts accepted workers=-2")
	}
}

func TestGridMergeMisuse(t *testing.T) {
	cfgA := EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 109}
	cfgB := EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 110}
	a, err := NewGrid(8, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGrid(8, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass1(b); err == nil || !strings.Contains(err.Error(), "Estimate.Seed 109/110") {
		t.Errorf("grid MergePass1 of mismatched seeds: %v, want the seeds named", err)
	}
	// Sparsifier grids carry sample columns; a different Z is named too.
	sample := func(z int) *Grid {
		return newGrid(8, Config{K: 1, Z: z, H: 2, Seed: 111, Estimate: cfgA}.withDefaults(8), true)
	}
	if err := sample(2).MergePass1(sample(3)); err == nil || !strings.Contains(err.Error(), "Z 2/3") {
		t.Errorf("grid MergePass1 of Z=2 and Z=3: %v, want Z named", err)
	}
	if err := sample(2).MergePass1(a); err == nil || !strings.Contains(err.Error(), "K 1/0") {
		t.Errorf("grid MergePass1 of a sparsifier's and an estimator's grid: %v, want K named", err)
	}
	if err := sample(2).MergePass1(sample(2)); err != nil {
		t.Errorf("grid MergePass1 of twin sparsifier grids: %v", err)
	}
	if _, err := a.ForkPass2(); err == nil {
		t.Error("grid ForkPass2 accepted phase-0 receiver")
	}
	if err := a.EndPass1(); err != nil {
		t.Fatal(err)
	}
	w, err := a.ForkPass2()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass2(w); err != nil {
		t.Errorf("grid MergePass2 of forked worker: %v", err)
	}
	if _, err := a.Finish(); err != nil {
		t.Errorf("grid Finish: %v", err)
	}
	if _, err := a.Finish(); err == nil {
		t.Error("grid Finish accepted twice")
	}
}
