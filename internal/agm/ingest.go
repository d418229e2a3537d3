package agm

// Batch ingest: route a chunk of updates once per round, sort its
// endpoint incidences by vertex, sweep the sampler grid in that order —
// with the routing split into contiguous parts and the sweep into
// vertex ranges when the chunk is large enough to share out.

import (
	"runtime"
	"slices"
	"sort"
	"sync"

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
// incidences, each packed as vertex<<32 | index<<1 | side. The part is
// chunk[next:stop]. The goroutine that routes it then sweeps the
// vertices [lo, hi), with at as its cursors into every part's incidence
// list.
type ingestScratch struct {
	routes     sketch.L0Routes
	inc        []uint64
	next, stop int
	lo, hi     int
	at         []int
}

// scratchFree shares ingest scratch across sketches: AddBatch holds one
// per part only for the duration of a call, so the k sketches of a
// certificate, an MSF's classes and the parts of a fanned-out chunk take
// turns on a few buffers instead of owning one each. It is a plain free
// list and not a sync.Pool: a pool is emptied by every collection (and
// at random under the race detector), and re-making an 8 MB scratch per
// GC cycle costs more than keeping one per concurrent ingester.
var scratchFree struct {
	sync.Mutex
	list []*ingestScratch
}

// scratchKeep bounds the free list: more ingesters than processors can
// be inside AddBatch at once, but their extra buffers are not kept.
var scratchKeep = runtime.GOMAXPROCS(0)

func getScratch() *ingestScratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if k := len(scratchFree.list); k > 0 {
		sc := scratchFree.list[k-1]
		scratchFree.list = scratchFree.list[:k-1]
		return sc
	}
	return new(ingestScratch)
}

// putScratch parks sc on the free list. Its routes drop their families
// first: a parked buffer must not keep the last sketch it served alive.
func putScratch(sc *ingestScratch) {
	sc.routes.Release()
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if len(scratchFree.list) < scratchKeep {
		scratchFree.list = append(scratchFree.list, sc)
	}
}

// ingestCrew is the bookkeeping of one AddBatch call, kept on the
// sketch so that a warmed call allocates nothing but its goroutines:
// each part's scratch, borrowed for the call, and the chunk in hand.
type ingestCrew struct {
	parts []*ingestScratch
	chunk []stream.Update
	wg    sync.WaitGroup
}

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
// is walked in address order. With w workers, w goroutines route w
// contiguous parts of the chunk and then sweep w vertex ranges of the
// grid, cut to balance incidence counts and never inside a vertex: each
// sampler is written by exactly one goroutine, and no lock is taken. w
// is the policy's worker count capped by parallel.BatchWorkers; a chunk
// too small to share out runs the same code with one part and one
// range.
//
// The state is bit-identical to the per-update fold at every worker
// count: cells are commutative field additions, a sampler's generation
// counts the updates that reached it, and a tail's length is the
// highest level seen. The decode cache's update log, the one
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
				a, b := min(u.U, u.V), max(u.U, u.V)
				s.logUpdate(stream.PairKey(a, b, s.n), a, b, int64(u.Delta))
			}
		}
	}
	chunk := min(len(batch), ingestChunk, 4*s.n)
	c := s.borrowCrew(w, chunk)
	for lo := 0; lo < len(batch); lo += chunk {
		c.split(batch[lo:min(lo+chunk, len(batch))])
		// A part whose routing buffer fills stops early; the rest of it is
		// routed after the sweep has emptied the buffers.
		for c.pending() {
			c.run(s, routePart)
			c.cut(s.n)
			c.run(s, sweepRange)
			for _, sc := range c.parts {
				sc.inc = sc.inc[:0]
				sc.routes.Clear()
			}
		}
	}
	c.release()
}

// borrowCrew readies the sketch's crew for one call: w parts, each with
// a scratch from the free list sized for its share of a chunk. Parts
// that route concurrently need every lazy power table built first.
func (s *Sketch) borrowCrew(w, chunk int) *ingestCrew {
	if s.crew == nil {
		s.crew = new(ingestCrew)
	}
	if w > 1 {
		for _, f := range s.fam {
			f.Warm()
		}
	}
	per := (chunk + w - 1) / w
	c := s.crew
	for k := 0; k < w; k++ {
		sc := getScratch()
		sc.routes.Reset(s.fam, per)
		if cap(sc.inc) < 2*per {
			sc.inc = make([]uint64, 0, 2*per)
		}
		if len(sc.at) < w {
			sc.at = make([]int, w)
		}
		c.parts = append(c.parts, sc)
	}
	return c
}

// release returns the parts' scratches to the free list; the crew keeps
// no reference to them or to the batch.
func (c *ingestCrew) release() {
	for _, sc := range c.parts {
		putScratch(sc)
	}
	clear(c.parts)
	c.parts, c.chunk = c.parts[:0], nil
}

// split hands the chunk to the parts in contiguous runs of about equal
// length.
func (c *ingestCrew) split(chunk []stream.Update) {
	c.chunk = chunk
	w := len(c.parts)
	for k, sc := range c.parts {
		sc.next, sc.stop = k*len(chunk)/w, (k+1)*len(chunk)/w
	}
}

// pending reports whether a part has updates left to route.
func (c *ingestCrew) pending() bool {
	for _, sc := range c.parts {
		if sc.next < sc.stop {
			return true
		}
	}
	return false
}

// run calls phase for every part — part 0 on the calling goroutine, each
// other one on its own — and returns when all have returned.
func (c *ingestCrew) run(s *Sketch, phase func(s *Sketch, c *ingestCrew, k int)) {
	c.wg.Add(len(c.parts) - 1)
	for k := 1; k < len(c.parts); k++ {
		go func(k int) {
			defer c.wg.Done()
			phase(s, c, k)
		}(k)
	}
	phase(s, c, 0)
	c.wg.Wait()
}

// routePart routes part k from its cursor until the part ends or its
// buffer fills, and sorts the part's incidences by vertex.
func routePart(s *Sketch, c *ingestCrew, k int) {
	sc := c.parts[k]
	for ; sc.next < sc.stop; sc.next++ {
		u := c.chunk[sc.next]
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
}

// cut splits the n vertices into one range per part, each holding about
// an equal share of the routed incidences; a range ends between two
// vertices, so one hub may fill a range of its own.
func (c *ingestCrew) cut(n int) {
	total := 0
	for _, sc := range c.parts {
		total += len(sc.inc)
	}
	lo := 0
	for k, sc := range c.parts {
		hi := n
		if k < len(c.parts)-1 {
			share := (k + 1) * total / len(c.parts)
			hi = sort.Search(n, func(v int) bool { return c.below(v) >= share })
		}
		sc.lo, sc.hi = lo, hi
		lo = hi
	}
}

// below counts the routed incidences of the vertices below v.
func (c *ingestCrew) below(v int) int {
	count := 0
	for _, sc := range c.parts {
		count += lowerBound(sc.inc, v)
	}
	return count
}

// lowerBound is the position of vertex v's first incidence in a sorted
// incidence list, or of the first one past it.
func lowerBound(inc []uint64, v int) int {
	i, _ := slices.BinarySearch(inc, uint64(v)<<32)
	return i
}

// sweepRange applies every part's incidences whose vertex lies in part
// k's range, vertex by vertex in address order — endpoint a of an
// update takes +delta, endpoint b (side 1) takes −delta — so a vertex's
// strip is loaded once however many parts reached it.
func sweepRange(s *Sketch, c *ingestCrew, k int) {
	me := c.parts[k]
	at := me.at[:len(c.parts)]
	for j, sc := range c.parts {
		at[j] = lowerBound(sc.inc, me.lo)
	}
	for {
		// The next vertex any part reached; a part past the range offers
		// only vertices from hi on.
		v := me.hi
		for j, sc := range c.parts {
			if at[j] < len(sc.inc) {
				v = min(v, int(sc.inc[at[j]]>>32))
			}
		}
		if v == me.hi {
			return
		}
		strip := s.samp[v*s.rounds : (v+1)*s.rounds]
		for j, sc := range c.parts {
			for ; at[j] < len(sc.inc) && int(sc.inc[at[j]]>>32) == v; at[j]++ {
				e := sc.inc[at[j]]
				sc.routes.Apply(strip, int(uint32(e)>>1), e&1 == 1)
			}
		}
	}
}
