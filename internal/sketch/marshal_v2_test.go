package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestL0MarshalV2SuppressesZeroLevels(t *testing.T) {
	s := NewL0Sampler(7, 1<<20, 4)
	ref := newRefSampler(s.fam)
	// A handful of keys: geometric levels leave most levels untouched.
	for _, k := range []uint64{3, 99, 12345, 777777} {
		s.Add(k, 2)
		ref.Add(k, 2)
	}
	v2, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The retired dense v1 layout (u64 lengths, every level dense) is
	// what suppression saves against, and it no longer decodes.
	v1 := ref.marshal(true)
	if len(v2) >= len(v1)/2 {
		t.Fatalf("v2 encoding %d bytes, dense v1 %d bytes — zero-run suppression missing", len(v2), len(v1))
	}
	var fromV1 L0Sampler
	if err := fromV1.UnmarshalBinary(v1); !errors.Is(err, errCorrupt) {
		t.Fatalf("v1 blob: %v, want errCorrupt", err)
	}
	if !bytes.Equal(ref.marshal(false), v2) {
		t.Fatal("reference v2 encoding differs from the live one")
	}

	// And the v2 round trip is exact.
	var fromV2 L0Sampler
	if err := fromV2.UnmarshalBinary(v2); err != nil {
		t.Fatal(err)
	}
	k1, w1, ok1 := s.Sample()
	k2, w2, ok2 := fromV2.Sample()
	if k1 != k2 || w1 != w2 || ok1 != ok2 {
		t.Fatalf("v2 round trip changed sampling: (%d,%d,%v) vs (%d,%d,%v)", k1, w1, ok1, k2, w2, ok2)
	}
}

func TestL0MarshalCanonicalAcrossMaterialization(t *testing.T) {
	// Two states with equal content but different materialization: one
	// fresh, one whose updates canceled back to zero. Their encodings
	// must match byte for byte (the property the remote-vs-serial
	// equivalence tests lean on).
	fam := NewL0Family(11, 1<<16, 4)
	fresh := fam.NewSampler()
	canceled := fam.NewSampler()
	for _, k := range []uint64{1, 2, 70} {
		canceled.Add(k, 5)
		canceled.Add(k, -5)
	}
	a, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := canceled.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("canceled-to-zero state encodes differently from a fresh state")
	}
}

func TestL0MarshalV2RejectsGarbage(t *testing.T) {
	valid := func() []byte {
		s := NewL0Sampler(3, 1<<10, 4)
		s.Add(42, 1)
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}()
	var s L0Sampler
	if err := s.UnmarshalBinary(valid[:len(valid)-1]); err == nil {
		t.Error("accepted truncated v2 blob")
	}
	bad := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bad[:8], 0xdead)
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("accepted unknown tag")
	}
}
