package spanner

// Pass-2 batch ingest: route a chunk of updates once, sort the
// (table, update) incidences by table, and sweep each touched table's
// levels with one batch add each — with the routing split into
// contiguous parts and the sweep into table ranges when the chunk is
// large enough to share out.

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// pass2Chunk is the most updates addPass2 routes before it sweeps: one
// default replay batch.
const pass2Chunk = stream.DefaultBatchSize

// An incidence is one (terminal table, update side) pair of a routed
// chunk, packed so that sorting incidences orders them by table and,
// within a table, deepest subsampling level first:
//
//	table<<32 | (incLevelMax−level)<<26 | index<<1 | side
//
// index is the update's position in the chunk and side says which
// endpoint is inside the cluster (0: U, 1: V); level is that endpoint's
// vertex level min(yLevel, yMax), at most 60. Copy indices are below
// n·k, which the packing holds to 2^32.
const (
	incLevelShift = 26
	incLevelMax   = 63
)

func incidence(t, level, i, side int) uint64 {
	return uint64(t)<<32 | uint64(incLevelMax-level)<<incLevelShift | uint64(i)<<1 | uint64(side)
}

func incTable(e uint64) int { return int(e >> 32) }
func incLevel(e uint64) int { return incLevelMax - int(uint32(e)>>incLevelShift) }
func incIndex(e uint64) int { return int(uint32(e)&(1<<incLevelShift-1)) >> 1 }

// pass2Part is the working memory of one part of a chunk: the
// table-sorted incidences of the part's updates chunk[next:stop]. The
// goroutine that routes the part then sweeps the tables [lo, hi), with
// at as its cursors into every part's incidences, gathering one table's
// edge updates into buf (their levels in lvl) for the table's batch
// adds through keyed.
type pass2Part struct {
	inc        []uint64
	next, stop int
	lo, hi     int
	at         []int
	buf        []sketch.KeyedEdgeUpdate
	lvl        []int
	keyed      sketch.KeyedScratch
}

// pass2Free shares parts across states and calls, as agm's ingest
// scratch is shared: a call holds one per part only while it runs, so
// the cells of a sparsifier grid take turns on a few buffers. A plain
// free list, not a sync.Pool, which every collection empties.
var pass2Free struct {
	sync.Mutex
	list []*pass2Part
}

// pass2Keep bounds the free list: more calls than processors can run at
// once, but their extra parts are not kept.
var pass2Keep = runtime.GOMAXPROCS(0)

func getPass2Part() *pass2Part {
	pass2Free.Lock()
	defer pass2Free.Unlock()
	if k := len(pass2Free.list); k > 0 {
		sc := pass2Free.list[k-1]
		pass2Free.list = pass2Free.list[:k-1]
		return sc
	}
	return new(pass2Part)
}

func putPass2Part(sc *pass2Part) {
	pass2Free.Lock()
	defer pass2Free.Unlock()
	if len(pass2Free.list) < pass2Keep {
		pass2Free.list = append(pass2Free.list, sc)
	}
}

// pass2Crew is the bookkeeping of one addPass2 call, kept on the state
// so that a call on materialized tables allocates nothing but its
// goroutines: each part, borrowed for the call, and the chunk in hand.
type pass2Crew struct {
	parts []*pass2Part
	chunk []stream.Update
	wg    sync.WaitGroup
}

// pass2Workers is the part count addPass2 runs a batch at under a
// policy of the given worker count.
func pass2Workers(workers int, batch []stream.Update) int {
	return parallel.BatchWorkers(workers, min(len(batch), pass2Chunk))
}

// addPass2 folds a batch into the pass-2 tables in w parts per chunk.
// The tables are linear, so the updates of a batch commute:
// a chunk is (1) routed once — the terminals of U but not V and of V
// but not U come out of one merge of the two sorted terminal lists —
// into packed incidences, (2) sorted by table, and (3) swept table by
// table, each touched table taking one KeyedEdgeSketch batch add per
// subsampling level it reaches while its lanes are in cache. With w
// workers, w goroutines route w contiguous parts of the chunk and then
// sweep w table ranges cut to balance incidence counts: each table is
// written by exactly one goroutine, and no lock is taken. Callers pick
// w with pass2Workers; a chunk too small to share out runs the same
// code with one part and one range.
//
// The tables are bit-identical to the per-update fold at every w, and
// so is each table's generation: it counts the non-zero adds that
// reached it.
func (tp *TwoPass) addPass2(batch []stream.Update, w int) {
	if len(batch) == 0 {
		return
	}
	chunk := min(len(batch), pass2Chunk)
	c := tp.borrowCrew(w)
	for lo := 0; lo < len(batch); lo += chunk {
		c.split(batch[lo:min(lo+chunk, len(batch))])
		c.run(tp, routePass2Part)
		c.cut(len(tp.tables))
		c.run(tp, sweepPass2Range)
	}
	c.release()
}

// borrowCrew readies the state's crew for one call with w parts.
func (tp *TwoPass) borrowCrew(w int) *pass2Crew {
	if tp.crew == nil {
		tp.crew = new(pass2Crew)
	}
	c := tp.crew
	for k := 0; k < w; k++ {
		sc := getPass2Part()
		if len(sc.at) < w {
			sc.at = make([]int, w)
		}
		c.parts = append(c.parts, sc)
	}
	return c
}

// release returns the parts to the free list, last first, so that the
// next call borrows them back in the same roles, their buffers already
// sized; the crew keeps no reference to them or to the batch.
func (c *pass2Crew) release() {
	for k := len(c.parts) - 1; k >= 0; k-- {
		putPass2Part(c.parts[k])
	}
	clear(c.parts)
	c.parts, c.chunk = c.parts[:0], nil
}

// split hands the chunk to the parts in contiguous runs of about equal
// length.
func (c *pass2Crew) split(chunk []stream.Update) {
	c.chunk = chunk
	w := len(c.parts)
	for k, sc := range c.parts {
		sc.next, sc.stop = k*len(chunk)/w, (k+1)*len(chunk)/w
		sc.inc = sc.inc[:0]
	}
}

// run calls phase for every part — part 0 on the calling goroutine, each
// other one on its own — and returns when all have returned.
func (c *pass2Crew) run(tp *TwoPass, phase func(tp *TwoPass, c *pass2Crew, k int)) {
	c.wg.Add(len(c.parts) - 1)
	for k := 1; k < len(c.parts); k++ {
		k := k
		go func() {
			defer c.wg.Done()
			phase(tp, c, k)
		}()
	}
	phase(tp, c, 0)
	c.wg.Wait()
}

// routePass2Part routes part k's updates and sorts its incidences. An
// update reaches the tables of the terminals holding exactly one of its
// endpoints, from that endpoint's side; a zero update or a self-loop
// reaches none.
func routePass2Part(tp *TwoPass, c *pass2Crew, k int) {
	sc := c.parts[k]
	for i := sc.next; i < sc.stop; i++ {
		u := c.chunk[i]
		if u.Delta == 0 {
			continue
		}
		ta, tb := tp.terminalsOf[u.U], tp.terminalsOf[u.V]
		la, lb := -1, -1 // the endpoints' vertex levels, hashed on first use
		x, y := 0, 0
		for x < len(ta) || y < len(tb) {
			switch {
			case y == len(tb) || x < len(ta) && ta[x] < tb[y]:
				if la < 0 {
					la = tp.vertexLevel(u.U)
				}
				sc.inc = append(sc.inc, incidence(ta[x], la, i, 0))
				x++
			case x == len(ta) || tb[y] < ta[x]:
				if lb < 0 {
					lb = tp.vertexLevel(u.V)
				}
				sc.inc = append(sc.inc, incidence(tb[y], lb, i, 1))
				y++
			default: // both endpoints inside the same cluster
				x++
				y++
			}
		}
	}
	slices.Sort(sc.inc)
}

// vertexLevel is the deepest vertex subsampling level Y_j holding a:
// its pass-2 updates reach table levels 0..vertexLevel(a).
func (tp *TwoPass) vertexLevel(a int) int { return min(tp.yLevel.Level(uint64(a)), tp.yMax) }

// cut splits the tables into one range per part, each holding about an
// equal share of the routed incidences; a range ends between two
// tables, so one busy table may fill a range of its own.
func (c *pass2Crew) cut(tables int) {
	total := 0
	for _, sc := range c.parts {
		total += len(sc.inc)
	}
	lo := 0
	for k, sc := range c.parts {
		hi := tables
		if k < len(c.parts)-1 {
			share := (k + 1) * total / len(c.parts)
			hi = sort.Search(tables, func(t int) bool { return c.below(t) >= share })
		}
		sc.lo, sc.hi = lo, hi
		lo = hi
	}
}

// below counts the routed incidences of the tables below t.
func (c *pass2Crew) below(t int) int {
	count := 0
	for _, sc := range c.parts {
		count += tableStart(sc.inc, t)
	}
	return count
}

// tableStart is the position of table t's first incidence in a sorted
// incidence list, or of the first one past it.
func tableStart(inc []uint64, t int) int {
	i, _ := slices.BinarySearch(inc, uint64(t)<<32)
	return i
}

// sweepPass2Range applies every part's incidences whose table lies in
// part k's range, table by table: the table's edge updates are gathered
// deepest level first — merging the parts' runs, each already in that
// order — so level j's updates are a prefix, and each level the table
// reaches takes one batch add.
func sweepPass2Range(tp *TwoPass, c *pass2Crew, k int) {
	me := c.parts[k]
	at := me.at[:len(c.parts)]
	for j, sc := range c.parts {
		at[j] = tableStart(sc.inc, me.lo)
	}
	for {
		// The next table any part reached; a part past the range offers
		// only tables from hi on.
		t := me.hi
		for j, sc := range c.parts {
			if at[j] < len(sc.inc) {
				t = min(t, incTable(sc.inc[at[j]]))
			}
		}
		if t == me.hi {
			return
		}
		me.buf, me.lvl = me.buf[:0], me.lvl[:0]
		for {
			next := -1
			for j, sc := range c.parts {
				if at[j] < len(sc.inc) && incTable(sc.inc[at[j]]) == t &&
					(next < 0 || sc.inc[at[j]] < c.parts[next].inc[at[next]]) {
					next = j
				}
			}
			if next < 0 {
				break
			}
			e := c.parts[next].inc[at[next]]
			at[next]++
			u := c.chunk[incIndex(e)]
			a, b := u.U, u.V
			if e&1 == 1 {
				a, b = b, a
			}
			me.buf = append(me.buf, sketch.KeyedEdgeUpdate{W: a, V: b, Delta: int64(u.Delta)})
			me.lvl = append(me.lvl, incLevel(e))
		}
		row := tp.tables[t]
		for j, end := 0, len(me.buf); ; j++ {
			for end > 0 && me.lvl[end-1] < j {
				end--
			}
			if end == 0 {
				break
			}
			row[j].AddBatchWith(me.buf[:end], &me.keyed)
		}
	}
}
