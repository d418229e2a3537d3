package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dynstream/internal/field"
)

// l0Pair drives the flat sampler and the per-level reference through
// the same operations and diffs everything observable.
type l0Pair struct {
	flat *L0Sampler
	ref  *refSampler
}

func newL0Pair(flat *L0Sampler) l0Pair {
	return l0Pair{flat: flat, ref: newRefSampler(flat.fam)}
}

// topInvariant reports a sampler that breaks the top invariant: a
// tail whose highest level is all-zero, or a tail without a level 0.
func topInvariant(s *L0Sampler) error {
	if len(s.tail) == 0 {
		return nil
	}
	if len(s.l0) == 0 {
		return errors.New("a tail without a level 0")
	}
	if field.AllZero(s.level(s.top())) {
		return fmt.Errorf("top level %d is all-zero", s.top())
	}
	return nil
}

func (p l0Pair) checkTop(t testing.TB, what string) {
	t.Helper()
	if err := topInvariant(p.flat); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func (p l0Pair) add(t testing.TB, mode string, keys []uint64, deltas []int64) {
	t.Helper()
	switch mode {
	case "Add":
		for i, k := range keys {
			p.flat.Add(k, deltas[i])
			p.ref.Add(k, deltas[i])
			p.checkTop(t, "Add")
		}
	case "AddHint":
		var h L0Hint
		for i, k := range keys {
			p.flat.fam.Hint(k, &h)
			p.flat.AddHint(k, deltas[i], &h)
			p.ref.AddHint(k, deltas[i], &h)
			p.checkTop(t, "AddHint")
		}
	case "AddBatch":
		p.flat.AddBatch(keys, deltas)
		p.ref.AddBatch(keys, deltas)
		p.checkTop(t, "AddBatch")
	}
}

func (p l0Pair) combine(t *testing.T, op string, o l0Pair) {
	t.Helper()
	var ef, er error
	switch op {
	case "Merge":
		ef, er = p.flat.Merge(o.flat), p.ref.Merge(o.ref)
	case "SetTo":
		p.flat.SetTo(o.flat)
		p.ref.SetTo(o.ref)
	}
	if ef != nil || er != nil {
		t.Fatalf("%s: flat err %v, reference err %v", op, ef, er)
	}
	p.checkTop(t, op)
}

func (p l0Pair) check(t *testing.T, what string) {
	t.Helper()
	enc, err := p.flat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, p.ref.marshal(false)) {
		t.Fatalf("%s: MarshalBinary differs from reference", what)
	}
	// Decoded standalone and into a grid slot: the top invariant holds
	// and the state re-encodes to the same bytes.
	for _, back := range []*L0Sampler{p.flat.fam.NewSampler(), &NewL0Grid([]*L0Family{p.flat.fam}, 1)[0]} {
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", what, err)
		}
		if err := topInvariant(back); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", what, err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Fatalf("%s: decoded state re-encodes differently", what)
		}
	}
	if g, w := p.flat.IsZero(), p.ref.IsZero(); g != w {
		t.Fatalf("%s: IsZero %v, reference %v", what, g, w)
	}
	if g, w := p.flat.SpaceWords(), p.ref.SpaceWords(); g != w {
		t.Fatalf("%s: SpaceWords %d, reference %d", what, g, w)
	}
	k1, w1, ok1 := p.flat.Sample()
	k2, w2, ok2 := p.ref.Sample()
	if k1 != k2 || w1 != w2 || ok1 != ok2 {
		t.Fatalf("%s: Sample (%d,%d,%v), reference (%d,%d,%v)", what, k1, w1, ok1, k2, w2, ok2)
	}
}

// TestL0FlatMatchesReference diffs the flat sampler against the old
// per-level composition over every ingest form × combining operation,
// with standalone and grid-backed receivers: a long source into a
// short tail (the receiver's tail grows inside Merge), a short source
// into a long tail, zero and canceled-to-zero sources, a source holding
// the receiver's negation (every level cancels, so the merge trims the
// whole tail), and batches whose geometric levels rise as they go (the
// tail grows mid-batch).
func TestL0FlatMatchesReference(t *testing.T) {
	const universe = 1 << 24
	fam := NewL0Family(0x51, universe, 4)
	few, fewD := batchWorkload(1, 3, universe)
	many, manyD := batchWorkload(2, 600, universe)
	manyD[7] = 0 // zero deltas are skipped, not counted
	inverse := negate(manyD)
	for _, grid := range []bool{false, true} {
		for _, mode := range []string{"Add", "AddHint", "AddBatch"} {
			for _, op := range []string{"Merge", "SetTo"} {
				t.Run(fmt.Sprintf("grid=%v/%s/%s", grid, mode, op), func(t *testing.T) {
					fresh := func() l0Pair {
						if grid {
							return newL0Pair(&NewL0Grid([]*L0Family{fam, fam}, 2)[3])
						}
						return newL0Pair(fam.NewSampler())
					}
					short, long, zero, canceled, negated := fresh(), fresh(), fresh(), fresh(), fresh()
					short.add(t, mode, few, fewD)
					short.check(t, "short ingest")
					long.add(t, mode, many, manyD)
					long.check(t, "long ingest")
					if long.flat.top() < 4 {
						t.Fatalf("long tail only reaches level %d", long.flat.top())
					}
					canceled.add(t, mode, many, manyD)
					canceled.add(t, mode, many, inverse)
					canceled.check(t, "canceled ingest")
					negated.add(t, mode, many, inverse)
					negated.combine(t, "Merge", long)
					negated.check(t, "negated source")
					if !negated.flat.IsZero() {
						t.Fatal("a sampler merged with its negation is not zero")
					}

					short.combine(t, op, long)
					short.check(t, "long source into short receiver")
					short.combine(t, op, zero)
					short.check(t, "zero source")
					short.combine(t, op, canceled)
					short.check(t, "canceled source")
					long.combine(t, op, short)
					long.check(t, "into long receiver")
					long.add(t, mode, many, manyD)
					long.check(t, "ingest after combine")
				})
			}
		}
	}
}

// TestL0UnmarshalIntoGridInPlace checks that decoding into a grid
// sampler — what agm.Sketch.UnmarshalBinary does n·R times — writes the
// sampler's own arena slot and equals the reference byte for byte, and
// that a rejected blob (truncated, or in the retired v1 layout) leaves
// the receiver as it was.
func TestL0UnmarshalIntoGridInPlace(t *testing.T) {
	const universe = 1 << 20
	fam := NewL0Family(0x77, universe, 4)
	src := newL0Pair(fam.NewSampler())
	keys, deltas := batchWorkload(5, 200, universe)
	src.add(t, "AddBatch", keys, deltas)
	blob := src.ref.marshal(false)
	grid := NewL0Grid([]*L0Family{fam}, 3)
	dst := &grid[1]
	dst.Add(9, 1) // stale content the decode must replace
	slot := &dst.l0[0]
	if err := dst.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if &dst.l0[0] != slot || dst.fam != fam {
		t.Error("decode moved the sampler out of its arena slot or family")
	}
	enc, _ := dst.MarshalBinary()
	if !bytes.Equal(enc, blob) {
		t.Error("decoded state re-encodes differently from the reference")
	}
	if !grid[0].IsZero() || !grid[2].IsZero() {
		t.Error("decode spilled into a neighbouring slot")
	}
	for name, bad := range map[string][]byte{"truncated": blob[:len(blob)-1], "v1": src.ref.marshal(true)} {
		if err := dst.UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
			t.Errorf("%s blob: %v, want errCorrupt", name, err)
		}
		if again, _ := dst.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Errorf("%s blob changed the receiver", name)
		}
	}
	// A level above a suppressed one is a state no stream produces.
	gap := src.ref
	gap.levels[1] = nil
	var s L0Sampler
	if err := s.UnmarshalBinary(gap.marshal(false)); err == nil {
		t.Error("blob with a level above a suppressed one accepted")
	}
}
