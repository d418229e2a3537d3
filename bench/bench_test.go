package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"dynstream"
	"dynstream/internal/graph"
)

// The goldens pin the generators: a benchmark whose inputs drift is not
// the same benchmark. Regenerate them only with a note in CHANGES.md.
func TestGeneratorsAreDeterministic(t *testing.T) {
	in, err := genBatch(200, 400, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.stream.Len(), 400+2*300; got != want {
		t.Fatalf("batch stream has %d updates, want %d", got, want)
	}
	got := digestUpdates(200, streamUpdates(in.stream))
	if want := uint64(0xc360f916bce17d72); got != want {
		t.Errorf("genBatch(200,400,300,7) digest = %#x, want %#x", got, want)
	}
	again, _ := genBatch(200, 400, 300, 7)
	if digestUpdates(200, streamUpdates(again.stream)) != got {
		t.Error("genBatch is not deterministic for one seed")
	}
	other, _ := genBatch(200, 400, 300, 8)
	if digestUpdates(200, streamUpdates(other.stream)) == got {
		t.Error("genBatch ignores its seed")
	}
	final, err := dynstream.Materialize(in.stream)
	if err != nil {
		t.Fatal(err)
	}
	if final.M() != 400 || !final.Connected() || !final.IsSubgraphOf(in.final) {
		t.Errorf("stream leaves %d edges (connected=%v), want the 400-edge connected base graph", final.M(), final.Connected())
	}

	sv := genServe(200, 400, 300, 500, 7)
	gotServe := digestUpdates(200, sv.preload, sv.log)
	if want := uint64(0x01d631924c8aaadb); gotServe != want {
		t.Errorf("genServe(200,400,300,500,7) digest = %#x, want %#x", gotServe, want)
	}
}

func TestServeLogIsStationary(t *testing.T) {
	sv := genServe(500, 1000, 800, 4000, 3)
	present := map[pair]int{}
	for _, u := range sv.preload {
		present[canon(u.U, u.V)] += u.Delta
	}
	base := len(present)
	if base != 1800 {
		t.Fatalf("preload leaves %d edges, want 1800", base)
	}
	live := base
	for i, u := range sv.log {
		p := canon(u.U, u.V)
		present[p] += u.Delta
		switch present[p] {
		case 1:
			live++
		case 0:
			live--
		default:
			t.Fatalf("log update %d takes edge %v to multiplicity %d", i, p, present[p])
		}
		if math.Abs(float64(live-base)) > 0.01*float64(base) {
			t.Fatalf("after log update %d the graph has %d edges, more than 1%% off %d", i, live, base)
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 75 || v != 30 {
		t.Errorf("tail(1..40) = p%v %v %v, want p75 30 true: exactly ten samples lie beyond it", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of ten samples must report no percentile")
	}
	pct, v, _ = tail(append(xs, xs...)) // 80 samples
	if pct != 87.5 || v != 35 {
		t.Errorf("tail of 80 samples = p%v %v, want p87.5 35", pct, v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10 squared], n=4) == [7.75, 30.5, 68.25]
	var xs []float64
	for i := 1; i <= 10; i++ {
		xs = append(xs, float64(i*i))
	}
	q1, q3 := quartiles(xs)
	if q1 != 7.75 || q3 != 68.25 || median(xs) != 30.5 {
		t.Errorf("quartiles = %v, %v median %v; Python gives 7.75, 68.25, 30.5", q1, q3, median(xs))
	}
}

func TestSpanSelfTime(t *testing.T) {
	//  root   [0,100)
	//    a    [10,40)   a1 [15,25)
	//    b    [30,60)   overlaps a: ran on another goroutine
	//    c    [90,120)  runs past its parent: clipped
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - (50 + 10), 1: 20, 2: 10, 3: 30, 4: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// The staged replay must be the same computation as the opaque Build,
// bit for bit, or its per-layer times describe a different program.
func TestStagedReplayEqualsBuild(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name                     string
		pipe                     pipeline
		n, baseEdges, churnPairs int
	}{
		{"forest-stream", pipeline{kind: "forest", workers: 1}, 200, 400, 300},
		{"forest-sharded", pipeline{kind: "forest", workers: 2}, 200, 400, 300},
		{"spanner-twopass", pipeline{kind: "spanner", workers: 1}, 200, 800, 300},
		// The sparsifier's cost is its 100-odd inner builds, not n: n=200
		// takes tens of seconds, n=24 the same code in well under one.
		{"sparsifier-twopass", pipeline{kind: "sparsifier", workers: 1}, 24, 120, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := genBatch(tc.n, tc.baseEdges, tc.churnPairs, 11)
			if err != nil {
				t.Fatal(err)
			}
			built, err := tc.pipe.run(ctx, in.stream, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := built.check(in.final); err != nil {
				t.Errorf("Build's answer fails its own check: %v", err)
			}
			rec := newRecorder()
			tr := dynstream.NewTracer()
			st := &staged{ctx: ctx, p: tc.pipe, tr: tr}
			replayed, err := st.replay(rec, 0, in.stream)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.digest != built.digest {
				t.Errorf("staged digest %#x, Build digest %#x", replayed.digest, built.digest)
			}
			if len(rec.snapshot()) < 4 {
				t.Errorf("replay recorded only %d spans", len(rec.snapshot()))
			}
			bad := *built
			bad.corrupt(in.final)
			if _, err := bad.check(in.final); err == nil {
				t.Error("a corrupted answer passed its check")
			}
		})
	}
}

func TestCheckForestRejectsWrongForests(t *testing.T) {
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(0, 2)
	e := func(u, v int) graph.Edge { return graph.Edge{U: u, V: v, W: 1} }
	if err := checkForest(g, []graph.Edge{e(0, 1), e(1, 2)}); err != nil {
		t.Errorf("a spanning forest was rejected: %v", err)
	}
	for name, f := range map[string][]graph.Edge{
		"not spanning": {e(0, 1)},
		"cycle":        {e(0, 1), e(1, 2), e(0, 2)},
		"foreign edge": {e(0, 1), e(2, 3)},
	} {
		if err := checkForest(g, f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BENCHMARK.json is the contract the gate reads; the Go tables are what
// the command emits. They must name the same things.
func TestMetricsAndWorkloadsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the command %q / %q",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, d := range want {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if got[i] != d {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the command %+v", kind, i, got[i], d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
}
