package stream

import (
	"errors"
	"math"
	"testing"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
)

func TestAppendValidation(t *testing.T) {
	s := NewMemoryStream(5)
	if err := s.Append(Update{U: 1, V: 1, Delta: 1}); err == nil {
		t.Error("self-loop accepted")
	}
	if err := s.Append(Update{U: 0, V: 9, Delta: 1}); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := s.Append(Update{U: 0, V: 1, Delta: 2}); err == nil {
		t.Error("delta=2 accepted")
	}
	if err := s.Append(Update{U: 0, V: 1, Delta: 1}); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
}

func TestReplayOrderAndRepeatability(t *testing.T) {
	s := NewMemoryStream(4)
	for i := 0; i < 3; i++ {
		_ = s.Append(Update{U: 0, V: i + 1, Delta: 1})
	}
	var first, second []int
	_ = s.Replay(func(u Update) error { first = append(first, u.V); return nil })
	_ = s.Replay(func(u Update) error { second = append(second, u.V); return nil })
	if len(first) != 3 || len(second) != 3 {
		t.Fatal("replay lost updates")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("replays differ — multi-pass broken")
		}
	}
}

func TestReplayPropagatesError(t *testing.T) {
	s := NewMemoryStream(3)
	_ = s.Append(Update{U: 0, V: 1, Delta: 1})
	sentinel := errors.New("stop")
	if err := s.Replay(func(Update) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Error("replay swallowed error")
	}
}

func TestMaterializeInsertDelete(t *testing.T) {
	s := NewMemoryStream(4)
	_ = s.Append(Update{U: 0, V: 1, Delta: 1})
	_ = s.Append(Update{U: 1, V: 2, Delta: 1})
	_ = s.Append(Update{U: 0, V: 1, Delta: -1})
	g, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.M() != 1 {
		t.Errorf("materialized graph wrong: %v", g.Edges())
	}
}

func TestMaterializeRejectsNegativeMultiplicity(t *testing.T) {
	s := NewMemoryStream(3)
	_ = s.Append(Update{U: 0, V: 1, Delta: -1})
	if _, err := Materialize(s); err == nil {
		t.Error("negative multiplicity accepted")
	}
}

func TestMaterializeMultigraph(t *testing.T) {
	s := NewMemoryStream(3)
	_ = s.Append(Update{U: 0, V: 1, Delta: 1})
	_ = s.Append(Update{U: 0, V: 1, Delta: 1})
	_ = s.Append(Update{U: 0, V: 1, Delta: -1})
	g, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("multiplicity 1 edge missing")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	const n = 1000
	for _, c := range [][2]int{{0, 1}, {5, 3}, {998, 999}, {0, 999}} {
		k := PairKey(c[0], c[1], n)
		u, v := DecodePairKey(k, n)
		wantU, wantV := c[0], c[1]
		if wantU > wantV {
			wantU, wantV = wantV, wantU
		}
		if u != wantU || v != wantV {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", c[0], c[1], u, v)
		}
	}
}

func TestPairKeySymmetric(t *testing.T) {
	if PairKey(3, 7, 100) != PairKey(7, 3, 100) {
		t.Error("PairKey not symmetric")
	}
}

func TestFromGraphMaterializesBack(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 5)
	s := FromGraph(g, 99)
	got, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() || !g.IsSubgraphOf(got) {
		t.Error("FromGraph stream does not reproduce graph")
	}
}

func TestWithChurnFinalGraph(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.15, 6)
	s := WithChurn(g, 100, 7)
	if s.Len() <= g.M() {
		t.Fatalf("churn stream too short: %d updates for %d edges", s.Len(), g.M())
	}
	got, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() || !g.IsSubgraphOf(got) {
		t.Errorf("churn stream final graph wrong: %d vs %d edges", got.M(), g.M())
	}
}

func TestWithChurnDeleteAfterInsert(t *testing.T) {
	g := graph.Path(10)
	s := WithChurn(g, 50, 8)
	mult := map[[2]int]int{}
	err := s.Replay(func(u Update) error {
		k := [2]int{u.U, u.V}
		mult[k] += u.Delta
		if mult[k] < 0 {
			return errors.New("deletion before insertion")
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestFilteredStream(t *testing.T) {
	g := graph.Complete(10)
	s := FromGraph(g, 1)
	f := &Filtered{Base: s, Keep: func(u Update) bool { return u.U == 0 }}
	count := 0
	_ = f.Replay(func(u Update) error { count++; return nil })
	if count != 9 {
		t.Errorf("filtered count = %d, want 9", count)
	}
	if f.N() != 10 {
		t.Errorf("N = %d", f.N())
	}
}

func TestSampledSubstreamNestedAndConsistent(t *testing.T) {
	g := graph.Complete(40) // 780 edges
	s := FromGraph(g, 2)
	var counts []int
	for j := 0; j <= 4; j++ {
		sub := SampledSubstream(s, 42, j)
		c := 0
		_ = sub.Replay(func(Update) error { c++; return nil })
		counts = append(counts, c)
	}
	if counts[0] != 780 {
		t.Errorf("level 0 should keep everything, got %d", counts[0])
	}
	for j := 1; j < len(counts); j++ {
		if counts[j] > counts[j-1] {
			t.Errorf("substreams not nested: level %d has %d > %d", j, counts[j], counts[j-1])
		}
	}
	// Level 2 keeps ~1/4: allow wide slack.
	if counts[2] < 780/16 || counts[2] > 780/2 {
		t.Errorf("level 2 kept %d of 780", counts[2])
	}
	// Replaying the same substream twice gives identical selections.
	sub := SampledSubstream(s, 42, 2)
	var a, b []uint64
	_ = sub.Replay(func(u Update) error { a = append(a, PairKey(u.U, u.V, 40)); return nil })
	_ = sub.Replay(func(u Update) error { b = append(b, PairKey(u.U, u.V, 40)); return nil })
	if len(a) != len(b) {
		t.Fatal("substream changed between passes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("substream edge selection changed between passes")
		}
	}
}

func TestWeightClassOf(t *testing.T) {
	cases := []struct {
		w, base float64
		want    int
	}{
		{0.5, 2, 0},
		{1, 2, 0},
		{1.9, 2, 0},
		{2, 2, 1},
		{4, 2, 2},
		{1000, 10, 3},
	}
	for _, c := range cases {
		if got := WeightClassOf(c.w, c.base); got != c.want {
			t.Errorf("WeightClassOf(%v, %v) = %d, want %d", c.w, c.base, got, c.want)
		}
	}
}

func TestWeightClassesPartition(t *testing.T) {
	g := graph.RandomWeighted(graph.Complete(12), 1, 1000, 3)
	s := FromGraph(g, 4)
	classes, sub, err := WeightClasses(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("no classes found")
	}
	total := 0
	for _, c := range classes {
		cnt := 0
		_ = sub[c].Replay(func(u Update) error {
			if WeightClassOf(u.W, 2) != c {
				t.Errorf("class %d substream leaked weight %v", c, u.W)
			}
			cnt++
			return nil
		})
		total += cnt
	}
	if total != g.M() {
		t.Errorf("classes cover %d updates, want %d", total, g.M())
	}
	// Classes sorted ascending.
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			t.Error("classes not sorted")
		}
	}
	// Max class consistent with wmax=1000, base 2: class ~ log2(1000) ≈ 9.
	if classes[len(classes)-1] > int(math.Log2(1000))+1 {
		t.Errorf("unexpected max class %d", classes[len(classes)-1])
	}
}

// loopClass is WeightClassOf as a plain division loop, unbounded.
func loopClass(w, base float64) int {
	c := 0
	for x := w; x >= base; x /= base {
		c++
	}
	return c
}

// TestWeightClassBound: below MaxWeightClass every class is the plain
// loop's — near the bound and at bases near 1 too — WeightClassAtMost
// is min(class, limit), and a class far above the bound is settled from
// logarithms: a base of 1 + 1e-12 at weight 2 (≈ 7·10¹¹ divisions for
// the loop) returns at once, and WeightClasses refuses it.
func TestWeightClassBound(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	for _, base := range []float64{1.5, 2, 10, 1 + 1e-3, 1 + 1e-6, 1 + 1e-9} {
		top := min(math.Log(base)*(MaxWeightClass+4), 700) // a few classes past the bound, or the largest finite weights
		for i := 0; i < 200; i++ {
			w := math.Exp(top * float64(rng.Next()%1e6) / 1e6)
			want := loopClass(w, base)
			if got := WeightClassOf(w, base); got != min(want, MaxWeightClass+1) {
				t.Fatalf("WeightClassOf(%v, %v) = %d, loop %d", w, base, got, want)
			}
			for _, limit := range []int{0, 1, 3, want, want + 1} {
				if got := WeightClassAtMost(w, base, limit); got != min(want, limit) {
					t.Fatalf("WeightClassAtMost(%v, %v, %d) = %d, loop %d", w, base, limit, got, want)
				}
			}
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if c := WeightClassOf(2, 1+1e-12); c != MaxWeightClass+1 {
			t.Errorf("WeightClassOf(2, 1+1e-12) = %d, want %d", c, MaxWeightClass+1)
		}
		if c := WeightClassAtMost(2, 1+1e-12, 4); c != 4 {
			t.Errorf("WeightClassAtMost(2, 1+1e-12, 4) = %d, want 4", c)
		}
		s := NewMemoryStream(3)
		_ = s.Append(Update{U: 0, V: 1, Delta: 1, W: 1})
		_ = s.Append(Update{U: 1, V: 2, Delta: 1, W: 2})
		if _, _, err := WeightClasses(s, 1+1e-12); !errors.Is(err, ErrTooManyClasses) {
			t.Errorf("WeightClasses at base 1+1e-12: err = %v, want ErrTooManyClasses", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("class index of weight 2 at base 1+1e-12: no answer within a second")
	}
}
