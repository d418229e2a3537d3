package stream

// DefaultBatchSize is the update-batch granularity of the batched
// ingest pipeline: 16 384 updates. The AGM sketch sorts each batch by
// vertex and sweeps its sampler grid once per batch, which only pays
// when a batch is comparable to the vertex count — at n = 10 000 ingest
// costs 0.69× what it does at 256. The price is granularity: a build
// observes cancellation and reports progress once per batch (about
// 0.2 s of AGM ingest at that n), and a single-cursor source fans out
// to workers in units this coarse. Two-pass targets are indifferent.
const DefaultBatchSize = 16384

// replayBufStart is the initial capacity of ReplayBatches' buffer; it
// doubles up to the batch size as the stream proves long enough, so a
// short stream (the sparsifier replays hundreds of ~1 000-update
// substreams) never pays for a 512 KB buffer.
const replayBufStart = 256

// ReplayBatches replays s in order, delivering updates in slices of at
// most size elements (DefaultBatchSize if size <= 0). A MemoryStream
// hands out sub-slices of its own backing array; other sources are
// copied through one buffer reused between calls. Either way consumers
// must neither retain nor mutate the slice. Ingesting batches through
// the AddBatch entry points of the sketch stack is bit-identical to
// update-at-a-time Replay.
func ReplayBatches(s Stream, size int, fn func([]Update) error) error {
	if size <= 0 {
		size = DefaultBatchSize
	}
	if m, ok := s.(*MemoryStream); ok {
		for ups := m.updates; len(ups) > 0; {
			k := min(size, len(ups))
			if err := fn(ups[:k:k]); err != nil {
				return err
			}
			ups = ups[k:]
		}
		return nil
	}
	buf := make([]Update, 0, min(size, replayBufStart))
	err := s.Replay(func(u Update) error {
		if len(buf) == cap(buf) {
			grown := make([]Update, len(buf), min(size, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		buf = append(buf, u)
		if len(buf) == size {
			err := fn(buf)
			buf = buf[:0]
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		return fn(buf)
	}
	return nil
}
