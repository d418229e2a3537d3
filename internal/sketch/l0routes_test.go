package sketch

import (
	"testing"

	"dynstream/internal/hashing"
)

// routeAll routes (keys, deltas) through r in as many fills as the
// buffer needs, handing each filled buffer to apply; it returns the
// number of fills.
func routeAll(r *L0Routes, fams []*L0Family, updates int, keys []uint64, deltas []int64, apply func()) int {
	fills := 1
	r.Reset(fams, updates)
	for i, k := range keys {
		if !r.Route(k, deltas[i]) {
			apply()
			fills++
			r.Clear()
			if !r.Route(k, deltas[i]) {
				panic("an empty buffer must take one update")
			}
		}
	}
	apply()
	return fills
}

// TestFamilyLevelMatchesHint: L0Family.Level over a key's powers is the
// level its hint routes to, the clamp to the deepest level included (a
// family over a universe of 4 keeps four levels, so keys drawn from a
// far wider range clamp often).
func TestFamilyLevelMatchesHint(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	for _, universe := range []uint64{4, 1 << 20, 1 << 40} {
		fam := NewL0Family(0x77, universe, 4)
		var h L0Hint
		var pw hashing.Powers
		clamped := 0
		for i := 0; i < 4000; i++ {
			key := rng.Next()
			fam.Hint(key, &h)
			hashing.PowersOf(key, &pw)
			if got := fam.Level(&pw); got != h.Level() {
				t.Fatalf("universe %d key %d: Level %d, hint level %d", universe, key, got, h.Level())
			}
			if h.Level() == len(fam.levels)-1 {
				clamped++
			}
		}
		if universe == 4 && clamped == 0 {
			t.Fatal("no key reached the deepest level of a 4-key universe")
		}
	}
}

// TestL0RoutesMatchesReference: routing a chunk once and applying it to
// grid strips in an order of the caller's choosing — here each update
// to one strip as is and to another negated, strips visited out of
// stream order — leaves every sampler exactly as the per-level
// reference fed the same updates one at a time.
func TestL0RoutesMatchesReference(t *testing.T) {
	const n, R, count = 6, 3, 900
	fams := make([]*L0Family, R)
	for r := range fams {
		fams[r] = NewL0Family(0x900+uint64(r), 1<<18, 4)
	}
	grid := NewL0Grid(fams, n)
	pairs := make([]l0Pair, len(grid))
	for i := range grid {
		pairs[i] = newL0Pair(&grid[i])
	}
	rng := hashing.NewSplitMix64(7)
	keys, deltas := make([]uint64, count), make([]int64, count)
	plus, minus := make([]int, count), make([]int, count)
	for i := range keys {
		keys[i] = rng.Next() % (1 << 18)
		deltas[i] = int64(rng.Intn(5)) - 2
		if deltas[i] == 0 {
			deltas[i] = 7
		}
		plus[i], minus[i] = rng.Intn(n), rng.Intn(n)
	}
	var routes L0Routes
	base := 0
	fills := routeAll(&routes, fams, 100, keys, deltas, func() {
		// Strips in descending vertex order, updates ascending within.
		for v := n - 1; v >= 0; v-- {
			for i := 0; i < routes.Len(); i++ {
				if plus[base+i] == v {
					routes.Apply(grid[v*R:(v+1)*R], i, false)
				}
				if minus[base+i] == v {
					routes.Apply(grid[v*R:(v+1)*R], i, true)
				}
			}
		}
		base += routes.Len()
	})
	if fills < count/100 {
		t.Fatalf("%d updates in fills of at most 100: %d fills", count, fills)
	}
	for i := range keys {
		for r := 0; r < R; r++ {
			pairs[plus[i]*R+r].ref.Add(keys[i], deltas[i])
			pairs[minus[i]*R+r].ref.Add(keys[i], -deltas[i])
		}
	}
	for i, p := range pairs {
		p.check(t, "sampler "+string(rune('0'+i/R))+"/"+string(rune('0'+i%R)))
	}
}

// TestL0RoutesFullBufferEndsFillEarly: level slots are provisioned for
// the expected two per entry, so a run of keys that all reach deep
// levels fills the buffer before the update count does. Route must
// then refuse without writing anything, and the refused update must
// land intact in the next fill.
func TestL0RoutesFullBufferEndsFillEarly(t *testing.T) {
	fams := []*L0Family{NewL0Family(0xa1, 1<<20, 4), NewL0Family(0xa2, 1<<20, 4)}
	var deep []uint64
	var h L0Hint
	for k := uint64(0); len(deep) < 200; k++ {
		lv := 0
		for _, f := range fams {
			f.Hint(k, &h)
			lv += h.Level()
		}
		if lv >= 5 { // at least seven level slots, against an expected four
			deep = append(deep, k)
		}
	}
	deltas := make([]int64, len(deep))
	for i := range deltas {
		deltas[i] = 1
	}
	grid := NewL0Grid(fams, 1)
	pairs := []l0Pair{newL0Pair(&grid[0]), newL0Pair(&grid[1])}
	var routes L0Routes
	fills := routeAll(&routes, fams, 100, deep, deltas, func() {
		for i := 0; i < routes.Len(); i++ {
			routes.Apply(grid, i, false)
		}
	})
	if fills <= 2 {
		t.Fatalf("200 deep keys in fills of 100 took %d fills, want the slot bound to cut them short", fills)
	}
	for r, p := range pairs {
		for _, k := range deep {
			p.ref.Add(k, 1)
		}
		p.check(t, "family "+string(rune('0'+r)))
	}
}
