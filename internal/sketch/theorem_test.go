package sketch

import (
	"testing"

	"dynstream/internal/hashing"
)

// TestRecoveryBudgetGuarantees pins how SketchB's peeling decode fails
// as its load grows: at capacity B = 16, 100 sketches per load of
// 0.5·B … 3·B distinct keys, the number whose decode fails or recovers
// fewer keys than were added. Up to 2·B the geometry's headroom keeps
// failures to a few in a hundred; at 3·B they rise to about one in
// nine.
func TestRecoveryBudgetGuarantees(t *testing.T) {
	const capacity, trials = 16, 100
	pinned := map[float64]int{0.5: 0, 1: 2, 1.5: 3, 2: 2, 3: 11}
	for _, load := range []float64{0.5, 1, 1.5, 2, 3} {
		items := int(load * capacity)
		failed := 0
		for trial := uint64(0); trial < trials; trial++ {
			s := NewSketchB(hashing.Mix(27, trial, uint64(items)), capacity)
			rng := hashing.NewSplitMix64(trial*7919 + uint64(items))
			keys := map[uint64]bool{}
			for len(keys) < items {
				if k := rng.Next() % 1000003; !keys[k] {
					keys[k] = true
					s.Add(k, 1)
				}
			}
			if got, ok := s.Decode(); !ok || len(got) != items {
				failed++
			}
		}
		t.Logf("load %.1f (%d keys): %d of %d decodes failed", load, items, failed, trials)
		if failed != pinned[load] {
			t.Errorf("load %.1f: %d of %d decodes failed, pinned %d", load, failed, trials, pinned[load])
		}
	}
}
