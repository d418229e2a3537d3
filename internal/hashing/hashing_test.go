package hashing

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dynstream/internal/field"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitMix64DifferentSeeds(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewSplitMix64(7)
	for i := 0; i < 1000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	rng := NewSplitMix64(8)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewSplitMix64(9)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMixDistinctStreams(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix(123, i)
		if seen[v] {
			t.Fatalf("Mix collision at index %d", i)
		}
		seen[v] = true
	}
}

func TestMixMultiIndex(t *testing.T) {
	if Mix(1, 2, 3) == Mix(1, 3, 2) {
		t.Error("Mix should depend on index order")
	}
	if Mix(1, 2) == Mix(2, 2) {
		t.Error("Mix should depend on seed")
	}
}

func TestPolyDeterministic(t *testing.T) {
	h1 := NewPoly(5, 4)
	h2 := NewPoly(5, 4)
	for x := uint64(0); x < 100; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatal("same-seed hash functions disagree")
		}
	}
}

func TestPolyRange(t *testing.T) {
	h := NewPoly(6, 4)
	for x := uint64(0); x < 1000; x++ {
		if h.Hash(x) >= field.P {
			t.Fatalf("hash out of field range at x=%d", x)
		}
	}
}

func TestBucketRange(t *testing.T) {
	h := NewPoly(10, 4)
	for x := uint64(0); x < 1000; x++ {
		b := h.Bucket(x, 7)
		if b < 0 || b >= 7 {
			t.Fatalf("bucket out of range: %d", b)
		}
	}
}

func TestBucketRoughlyUniform(t *testing.T) {
	h := NewPoly(11, 6)
	const m, trials = 10, 20000
	counts := make([]int, m)
	for x := uint64(0); x < trials; x++ {
		counts[h.Bucket(x, m)]++
	}
	want := float64(trials) / m
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("bucket %d has %d items, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		h := NewPoly(Mix(12, uint64(rate*100)), 6)
		const trials = 20000
		hit := 0
		for x := uint64(0); x < trials; x++ {
			if h.Bernoulli(x, rate) {
				hit++
			}
		}
		got := float64(hit) / trials
		if math.Abs(got-rate) > 0.03 {
			t.Errorf("Bernoulli(rate=%v) empirical %v", rate, got)
		}
	}
}

func TestBernoulliEdgeRates(t *testing.T) {
	h := NewPoly(13, 4)
	if !h.Bernoulli(5, 1.0) {
		t.Error("rate 1 must always sample")
	}
	if h.Bernoulli(5, 0.0) {
		t.Error("rate 0 must never sample")
	}
}

func TestLevelDistribution(t *testing.T) {
	h := NewPoly(14, 8)
	const trials = 40000
	counts := make([]int, 16)
	for x := uint64(0); x < trials; x++ {
		l := h.Level(x)
		if l < len(counts) {
			counts[l]++
		}
	}
	// P(level >= j) = 2^-j, so P(level == j) = 2^-(j+1) for small j.
	for j := 0; j <= 4; j++ {
		want := float64(trials) / math.Pow(2, float64(j+1))
		got := float64(counts[j])
		if math.Abs(got-want) > 0.2*want+20 {
			t.Errorf("level %d: got %v want ~%v", j, got, want)
		}
	}
}

func TestLevelNonNegative(t *testing.T) {
	f := func(seed, x uint64) bool {
		h := NewPoly(seed, 4)
		l := h.Level(x)
		return l >= 0 && l <= 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(103))}); err != nil {
		t.Error(err)
	}
}

func TestPolyIndependenceFloor(t *testing.T) {
	// Degree is clamped to >= 2 (pairwise).
	h := NewPoly(15, 0)
	if len(h.coeffs) != 2 {
		t.Errorf("independence floor not applied: %d coeffs", len(h.coeffs))
	}
}

func TestPolyBankMatchesPerPolyHash(t *testing.T) {
	polys := make([]*Poly, 9)
	for i := range polys {
		polys[i] = NewPoly(Mix(0xbeef, uint64(i)), 6)
	}
	bank := NewPolyBank(polys...)
	if bank == nil || bank.Lanes() != len(polys) {
		t.Fatal("bank construction failed for uniform degrees")
	}
	dst := make([]uint64, len(polys))
	rng := NewSplitMix64(0x1234)
	for trial := 0; trial < 500; trial++ {
		x := rng.Next()
		// Full bank and a strict prefix (the level-sampled path).
		for _, k := range []int{len(polys), 1 + trial%len(polys)} {
			bank.HashPrefix(x, dst[:k])
			for i := 0; i < k; i++ {
				if want := polys[i].Hash(x); dst[i] != want {
					t.Fatalf("trial %d lane %d: bank %d, Hash %d", trial, i, dst[i], want)
				}
			}
		}
	}
}

func TestPolyBankRejectsMixedDegrees(t *testing.T) {
	if NewPolyBank() != nil {
		t.Fatal("empty bank should be nil")
	}
	if NewPolyBank(NewPoly(1, 6), NewPoly(2, 8)) != nil {
		t.Fatal("mixed-degree bank should be nil")
	}
}

// TestSeededBankMatchesPolys: a bank seeded straight into its lanes
// holds, lane for lane, the coefficients of the Polys NewPoly derives
// from the same seeds, and hashes every key as they do, for every
// independence a bank takes; appending banks concatenates their lanes.
func TestSeededBankMatchesPolys(t *testing.T) {
	rng := NewSplitMix64(0x5eed)
	for d := 2; d <= MaxDegree; d++ {
		seeds := make([]uint64, 7)
		polys := make([]*Poly, len(seeds))
		for i := range seeds {
			seeds[i] = rng.Next()
			polys[i] = NewPoly(seeds[i], d)
		}
		bank := SeededBank(d, seeds...)
		ref := NewPolyBank(polys...)
		if bank.Lanes() != len(seeds) || !slices.Equal(bank.coef, ref.coef) {
			t.Fatalf("independence %d: seeded lanes differ from NewPoly's coefficients", d)
		}
		var joined PolyBank
		joined.Append(&PolyBank{coef: bank.coef[:3]})
		joined.Append(&PolyBank{coef: bank.coef[3:]})
		if !slices.Equal(joined.coef, bank.coef) {
			t.Fatalf("independence %d: appended banks differ from one bank", d)
		}
		got := make([]uint64, len(seeds))
		for trial := 0; trial < 200; trial++ {
			x := rng.Next()
			k := 1 + trial%len(seeds)
			bank.HashPrefix(x, got[:k])
			for i := 0; i < k; i++ {
				if want := polys[i].Hash(x); got[i] != want {
					t.Fatalf("independence %d, key %d, lane %d: seeded bank %d, NewPoly %d", d, x, i, got[i], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SeededBank past MaxDegree did not panic")
		}
	}()
	SeededBank(MaxDegree+1, 1)
}

// TestSeededCoeffsLeadingZero: a seed whose last SplitMix64 draw is 0
// gets leading coefficient 1, through NewPoly and SeededBank alike. The
// state after the d-th draw is seed + d·γ, and state 0 draws 0, so seed
// −d·γ makes the leading coefficient's draw zero.
func TestSeededCoeffsLeadingZero(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for d := 2; d <= MaxDegree; d++ {
		seed := -uint64(d) * gamma
		raw := SplitMix64{state: seed}
		for i := 1; i < d; i++ {
			raw.Next()
		}
		if x := raw.Next(); x != 0 {
			t.Fatalf("independence %d: leading draw %d, want 0", d, x)
		}
		c := make([]uint64, d)
		seedCoeffs(seed, c)
		p, bank := NewPoly(seed, d), SeededBank(d, seed)
		if c[d-1] != 1 || !slices.Equal(p.coeffs, c) || !slices.Equal(bank.coef[0][:d], c) {
			t.Fatalf("independence %d: leading coefficients %d (helper), %d (NewPoly), %d (bank), want 1",
				d, c[d-1], p.coeffs[d-1], bank.coef[0][d-1])
		}
	}
}
