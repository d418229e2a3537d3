package stream

import (
	"errors"
	"runtime"
	"testing"
)

// ringStream is a memory stream of count insertions around a ring of n
// vertices.
func ringStream(t *testing.T, n, count int) *MemoryStream {
	t.Helper()
	m := NewMemoryStream(n)
	for i := 0; i < count; i++ {
		if err := m.Append(Update{U: i % n, V: (i + 1) % n, Delta: 1, W: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// buffered is a view of m that ReplayBatches must copy through its
// buffer: a Filtered that keeps everything is not a *MemoryStream.
func buffered(m *MemoryStream) Stream {
	return &Filtered{Base: m, Keep: func(Update) bool { return true }}
}

// collectBatches replays s in batches of size and returns the batch
// lengths and the concatenated updates.
func collectBatches(t *testing.T, s Stream, size int) (lens []int, all []Update) {
	t.Helper()
	if err := ReplayBatches(s, size, func(b []Update) error {
		lens = append(lens, len(b))
		all = append(all, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lens, all
}

// TestReplayBatchesMemoryStreamIsZeroCopy: a MemoryStream's batches are
// windows onto its own backing array, full-size until the last, with
// capacity clipped to length so a consumer's append cannot reach the
// next batch.
func TestReplayBatchesMemoryStreamIsZeroCopy(t *testing.T) {
	m := ringStream(t, 9, 1000)
	pos := 0
	err := ReplayBatches(m, 300, func(b []Update) error {
		if &b[0] != &m.updates[pos] {
			t.Fatalf("batch at %d is a copy, want a window onto the stream", pos)
		}
		if want := min(300, 1000-pos); len(b) != want || cap(b) != want {
			t.Fatalf("batch at %d: len %d cap %d, want both %d", pos, len(b), cap(b), want)
		}
		pos += len(b)
		return nil
	})
	if err != nil || pos != 1000 {
		t.Fatalf("replayed %d of 1000 updates, err %v", pos, err)
	}
	sentinel := errors.New("stop")
	if err := ReplayBatches(m, 300, func([]Update) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("consumer error lost: %v", err)
	}
	if err := ReplayBatches(NewMemoryStream(3), 0, func([]Update) error {
		t.Error("empty stream delivered a batch")
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// TestReplayBatchesBufferedMatchesReplay: the copied-through path
// delivers the same updates in the same order as the zero-copy one, in
// full-size batches until the last, at sizes below, at and above the
// buffer's starting capacity.
func TestReplayBatchesBufferedMatchesReplay(t *testing.T) {
	m := ringStream(t, 9, 5000)
	for _, size := range []int{1, 100, replayBufStart, 1000, 4999, 5000, 5001, 0} {
		lens, got := collectBatches(t, buffered(m), size)
		wantLens, want := collectBatches(t, m, size)
		if len(got) != len(want) {
			t.Fatalf("size %d: %d updates, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: update %d is %+v, want %+v", size, i, got[i], want[i])
			}
		}
		if len(lens) != len(wantLens) {
			t.Fatalf("size %d: %d batches, want %d", size, len(lens), len(wantLens))
		}
		for i := range lens {
			if lens[i] != wantLens[i] {
				t.Fatalf("size %d: batch %d has %d updates, want %d", size, i, lens[i], wantLens[i])
			}
		}
	}
}

// TestReplayBatchesBufferGrowsOnDemand: the buffer starts at
// replayBufStart slots and doubles only while the stream keeps coming,
// so a short stream at the default batch size allocates for what it
// delivers — not the 512 KB a full default batch takes — and a long one
// allocates less than twice its final buffer.
func TestReplayBatchesBufferGrowsOnDemand(t *testing.T) {
	const updateBytes = 32
	allocated := func(s Stream) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ReplayBatches(s, 0, func([]Update) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		count int
		limit uint64
	}{
		{10, 2 * replayBufStart * updateBytes},
		{1040, 2 * 2048 * updateBytes}, // one of the sparsifier's inner replays
		{3 * DefaultBatchSize, 2*DefaultBatchSize*updateBytes + 4096},
	} {
		s := buffered(ringStream(t, 9, tc.count))
		if got := allocated(s); got > tc.limit {
			t.Errorf("%d-update stream: ReplayBatches allocated %d bytes, want at most %d", tc.count, got, tc.limit)
		}
	}
}
