package agm

// Batch ingest: route a chunk of updates once per round, sort its
// endpoint incidences by vertex, sweep the sampler grid in that order —
// with the routing split into contiguous parts and the sweep into
// vertex ranges when the chunk is large enough to share out.

import (
	"slices"

	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// ingestChunk is the most updates AddBatch routes before it sweeps: one
// default replay batch, comparable to n at the sizes where ingest cost
// matters. A sketch on fewer than ingestChunk/4 vertices sweeps every
// 4n updates instead — eight incidences per vertex already amortize
// the strip loads — which keeps the routing scratch (about 32 bytes per
// update and round) under a third of the level-0 arena it serves.
const ingestChunk = stream.DefaultBatchSize

// ingestScratch is the working memory of one part of a chunk: the
// part's routed updates and the vertex-sorted list of their endpoint
// incidences, each packed as vertex<<32 | index<<1 | side.
type ingestScratch struct {
	routes sketch.L0Routes
	inc    []uint64
}

// ingestParts shares ingest scratch across sketches (see
// parallel.FreeList). A parked scratch's routes drop their families
// first: it must not keep the last sketch it served alive.
var ingestParts = parallel.NewFreeList(func(sc *ingestScratch) { sc.routes.Release() })

// serial is the policy the applications' AddBatch methods run under:
// only its worker count, 1, is read.
var serial = parallel.Default()

// AddBatch folds a batch of stream updates on the calling goroutine:
// AddBatchOpts at one worker.
func (s *Sketch) AddBatch(batch []stream.Update) { s.addBatch(batch, 1) }

// AddBatchOpts folds a batch of stream updates, fanned out across the
// policy's workers. The sketch is linear, so the updates of a batch
// commute, and instead of replaying them in stream order — two random
// vertices' sampler strips per update — a chunk of the batch is (1)
// routed once per round into packed buffers, (2) its endpoint
// incidences are sorted by vertex, and (3) swept in that order, so a
// vertex's strip and its tails are loaded once per chunk and the grid
// is walked in address order. With w workers (parallel.BatchWorkers),
// a parallel.Crew routes w parts of the chunk and sweeps w vertex
// ranges, so each sampler is written by one goroutine and no lock is
// taken; a small chunk runs the same code with one part.
//
// The state is bit-identical to the per-update fold at every worker
// count: cells are commutative field additions and a tail's length is
// the highest level seen. The decode cache's update log, the one
// order-sensitive record, is written first, serially, in stream order.
// Batches longer than ingestChunk are processed in chunks.
func (s *Sketch) AddBatchOpts(batch []stream.Update, p *parallel.Policy) {
	s.addBatch(batch, parallel.BatchWorkers(p.Workers(), min(len(batch), ingestChunk, 4*s.n)))
}

// addBatch is AddBatchOpts with w parts per chunk.
func (s *Sketch) addBatch(batch []stream.Update, w int) {
	if len(batch) == 0 {
		return
	}
	if s.caching {
		for _, u := range batch {
			if u.U != u.V && u.Delta != 0 {
				s.logUpdate(min(u.U, u.V), max(u.U, u.V))
			}
		}
	}
	c := &s.crew
	c.Borrow(ingestParts, w)
	// Parts that route concurrently need every lazy power table built
	// first.
	if w > 1 {
		for _, f := range s.fam {
			f.Warm()
		}
	}
	chunk := min(len(batch), ingestChunk, 4*s.n)
	per := (chunk + w - 1) / w
	for _, sc := range c.Parts {
		sc.routes.Reset(s.fam, per)
		sc.inc = slices.Grow(sc.inc[:0], 2*per)
	}
	for lo := 0; lo < len(batch); lo += chunk {
		c.Split(batch[lo:min(lo+chunk, len(batch))])
		// A part whose routing buffer fills stops early; the rest of it is
		// routed after the sweep has emptied the buffers.
		for c.Pending() {
			c.Run(s, routePart)
			c.Cut(s.n, c.Below)
			c.Run(s, sweepRange)
		}
	}
	c.Release(ingestParts)
}

// routePart empties part k's buffers, routes the part from its cursor
// until the part ends or its buffer fills, and sorts the part's
// incidences by vertex.
func routePart(s *Sketch, k int) {
	c := &s.crew
	sc, sp := c.Parts[k], &c.Spans[k]
	sc.inc = sc.inc[:0]
	sc.routes.Clear()
	for ; sp.Next < sp.Stop; sp.Next++ {
		u := c.Chunk[sp.Next]
		if u.U == u.V || u.Delta == 0 {
			continue
		}
		a, b := min(u.U, u.V), max(u.U, u.V)
		if !sc.routes.Route(stream.PairKey(a, b, s.n), int64(u.Delta)) {
			break
		}
		i := uint64(sc.routes.Len()-1) << 1
		sc.inc = append(sc.inc, uint64(a)<<32|i, uint64(b)<<32|i|1)
	}
	slices.Sort(sc.inc)
	sp.Keys = sc.inc
}

// sweepRange applies every part's incidences whose vertex lies in part
// k's range, vertex by vertex in address order — endpoint a of an
// update takes +delta, endpoint b (side 1) takes −delta — so a vertex's
// strip is loaded once however many parts reached it.
func sweepRange(s *Sketch, k int) {
	c := &s.crew
	sp := &c.Spans[k]
	v, strip := -1, []sketch.L0Sampler(nil)
	for e, j := sp.Take(c.Spans); j >= 0; e, j = sp.Take(c.Spans) {
		if int(e>>32) != v {
			v = int(e >> 32)
			strip = s.samp[v*s.rounds : (v+1)*s.rounds]
		}
		c.Parts[j].routes.Apply(strip, int(uint32(e)>>1), e&1 == 1)
	}
}
