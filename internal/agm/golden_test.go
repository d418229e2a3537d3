package agm

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// TestAGMMarshalGolden pins the wire bytes of a sketch through every way its sampler state comes to be: fresh,
// built by a churned stream, churned all the way back to zero (levels
// materialized, content zero), merged, and unmarshalled into a freshly
// allocated grid. The digests were computed at the commit before the
// flat sampler grid (PR 15): the in-memory layout may change, these
// bytes may not.
func TestAGMMarshalGolden(t *testing.T) {
	const n, seed = 48, 0x5eed
	g := graph.ConnectedGNP(n, 0.2, 11)
	var ups []stream.Update
	if err := stream.WithChurn(g, 400, 12).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	digest := func(s *Sketch) string {
		t.Helper()
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		return hex.EncodeToString(sum[:])
	}

	fresh := New(seed, n, Config{})

	built := New(seed, n, Config{})
	built.AddBatch(ups)

	// Every update followed by its inverse: tails are grown, every
	// level cancels back to zero, so the bytes equal the fresh sketch's.
	cancelled := New(seed, n, Config{})
	cancelled.AddBatch(ups)
	for i := len(ups) - 1; i >= 0; i-- {
		u := ups[i]
		u.Delta = -u.Delta
		cancelled.AddUpdate(u)
	}

	// Two shards merged, one of them merged again after cancelling: the
	// zero-level skip must leave the receiver's bytes alone.
	merged := New(seed, n, Config{})
	merged.AddBatch(ups[:len(ups)/2])
	other := New(seed, n, Config{})
	other.AddBatch(ups[len(ups)/2:])
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(cancelled); err != nil {
		t.Fatal(err)
	}

	enc, err := built.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := restored.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		s      *Sketch
		digest string
	}{
		{"fresh", fresh, goldenFresh},
		{"built", built, goldenBuilt},
		{"cancelled", cancelled, goldenFresh},
		{"merged", merged, goldenBuilt},
		{"restored", &restored, goldenBuilt},
	} {
		if got := digest(tc.s); got != tc.digest {
			t.Errorf("%s: marshal digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

const (
	goldenFresh = "338e22e5eda4e44f3edfbbab786ef4f3df1cadfee1e0f7c548b3db5e44571519"
	goldenBuilt = "a35acf0879d9696abaeb5fec6b6e69ea7ca7dbb5cfe77ae1707fea1983e32fc9"
)
