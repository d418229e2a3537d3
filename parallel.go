package dynstream

// Stream sharding utilities. Every construction in this package is a
// linear sketch, so a stream split into P shards, ingested by P
// workers into states built from the same seed, and merged yields a
// state — and therefore an output — identical to single-threaded
// ingestion (the distributed setting of the paper's introduction,
// Theorem 10's mergeability, realized as goroutines). Build does this
// for the two-pass targets under WithWorkers, and remote builds across
// processes; the shard views below are for callers that drive their own
// states.

import (
	"dynstream/internal/stream"
)

// StreamShard is a replayable round-robin shard view of a base source.
type StreamShard = stream.Shard

// SplitStream partitions src into p round-robin shards whose union is
// exactly src. Shards replay concurrently; feed each to its own
// same-seeded sketch state and merge.
func SplitStream(src Source, p int) ([]Stream, error) { return stream.Split(src, p) }
