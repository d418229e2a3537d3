package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestMapOptsOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := Default().WithWorkers(workers)
		out, err := MapOpts(p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapOptsFirstErrorByIndex(t *testing.T) {
	p := Default().WithWorkers(4)
	_, err := MapOpts(p, 50, func(i int) (int, error) {
		if i == 7 || i == 31 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail 7" {
		t.Fatalf("got %v, want the first error by index", err)
	}
}

func TestForEachOptsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPolicy(ctx, 1, 0, nil)
	err := ForEachOpts(p, 10, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestTreeMergeEqualsLinearFold: for commutative group merges (the
// only kind in this repository) the tree fold must equal the serial
// left fold exactly.
func TestTreeMergeEqualsLinearFold(t *testing.T) {
	for n := 1; n <= 33; n++ {
		items := make([]*[]int, n)
		var want []int
		for i := range items {
			v := []int{i, 10 * i}
			items[i] = &v
			want = append(want, v...)
		}
		merge := func(dst, src *[]int) error { *dst = append(*dst, *src...); return nil }
		got, err := TreeMerge(Default().WithWorkers(4), items, merge)
		if err != nil {
			t.Fatal(err)
		}
		// Multiset equality is what linearity guarantees; for the
		// adjacent-pair schedule the concatenation order is exactly the
		// left fold's as well.
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("n=%d: tree fold %v, linear fold %v", n, *got, want)
		}
	}
}

func TestTreeMergeEmptyAndError(t *testing.T) {
	got, err := TreeMerge(Default(), nil, func(dst, src *int) error { return nil })
	if err != nil || got != nil {
		t.Fatalf("empty: got (%v, %v), want (nil, nil)", got, err)
	}
	items := []*int{new(int), new(int), new(int)}
	wantErr := errors.New("boom")
	_, err = TreeMerge(Default().WithWorkers(2), items, func(dst, src *int) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestDecodePolicy(t *testing.T) {
	p := NewPolicy(nil, 4, 0, nil)
	if got := p.DecodeWorkers(); got != 4 {
		t.Fatalf("default decode workers = %d, want 4 (follow ingest)", got)
	}
	d := p.WithDecode(2)
	if got := d.DecodeWorkers(); got != 2 {
		t.Fatalf("decode workers = %d, want 2", got)
	}
	if got := d.DecodePolicy().Workers(); got != 2 {
		t.Fatalf("decode policy workers = %d, want 2", got)
	}
	if got := d.Workers(); got != 4 {
		t.Fatalf("ingest workers = %d, want 4", got)
	}
}
