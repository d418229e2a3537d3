package parallel

import (
	"errors"
	"sync/atomic"
	"testing"

	"dynstream/internal/stream"
)

// counter is a trivial linear "sketch": the sum of deltas and the sum
// of endpoint products, both commutative — so sharded ingest + merge
// must equal serial ingest exactly.
type counter struct {
	updates int64
	sum     int64
}

func (c *counter) add(batch []stream.Update) {
	for _, u := range batch {
		c.updates++
		c.sum += int64(u.Delta) * int64(u.U+u.V)
	}
}

// ingest runs IngestOpts over a counter-like state at a worker count.
func ingest[S interface{ Merge(S) error }](st stream.Source, workers int, newState func() S, add func(S, []stream.Update)) (S, error) {
	return IngestOpts(Default().WithWorkers(workers), st,
		func() (S, error) { return newState(), nil },
		func(s S, b []stream.Update) error { add(s, b); return nil },
		S.Merge)
}

func (c *counter) Merge(o *counter) error {
	c.updates += o.updates
	c.sum += o.sum
	return nil
}

func testStream(t *testing.T, n, m int) *stream.MemoryStream {
	t.Helper()
	st := stream.NewMemoryStream(n)
	for i := 0; i < m; i++ {
		u, v := i%n, (i*7+1)%n
		if u == v {
			v = (v + 1) % n
		}
		if err := st.Append(stream.Update{U: u, V: v, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestIngestMatchesSerial(t *testing.T) {
	st := testStream(t, 20, 500)
	serial, err := ingest(st, 1, func() *counter { return &counter{} }, (*counter).add)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 100} {
		par, err := ingest(st, workers, func() *counter { return &counter{} }, (*counter).add)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *par != *serial {
			t.Errorf("workers=%d: %+v vs serial %+v", workers, *par, *serial)
		}
	}
	if _, err := ingest(st, 0, func() *counter { return &counter{} }, (*counter).add); err == nil {
		t.Error("IngestOpts accepted workers=0")
	}
}

type failing struct{ counter }

func (f *failing) Merge(o *failing) error { return errors.New("merge refused") }

func TestIngestPropagatesMergeError(t *testing.T) {
	st := testStream(t, 10, 40)
	if _, err := ingest(st, 2, func() *failing { return &failing{} }, func(f *failing, b []stream.Update) { f.add(b) }); err == nil {
		t.Error("merge error not propagated")
	}
}

func TestForEach(t *testing.T) {
	var ran int64
	if err := ForEachOpts(Default().WithWorkers(4), 100, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Errorf("ran %d tasks, want 100", ran)
	}
	// First error by index is returned; all tasks still run.
	ran = 0
	err := ForEachOpts(Default().WithWorkers(3), 50, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 7 || i == 31 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Error("error not propagated")
	}
	if ran != 50 {
		t.Errorf("ran %d tasks, want all 50 despite errors", ran)
	}
	if err := ForEachOpts(Default().WithWorkers(2), 0, func(int) error { return nil }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := ForEachOpts(Default().WithWorkers(0), 3, func(int) error { return nil }); err == nil {
		t.Error("ForEachOpts accepted workers=0")
	}
}
