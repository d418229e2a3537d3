package spanner

// Pass-2 batch ingest: route a chunk of updates once, sort the
// (table, update) incidences by table, and sweep each touched table's
// levels with one batch add each — with the routing split into
// contiguous parts and the sweep into table ranges when the chunk is
// large enough to share out.

import (
	"slices"

	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

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
// table-sorted incidences of the part's updates, and the buffers its
// sweep gathers one table's edge updates into (buf, their levels in lvl)
// for the table's batch adds through keyed.
type pass2Part struct {
	inc   []uint64
	buf   []sketch.KeyedEdgeUpdate
	lvl   []int
	keyed sketch.KeyedScratch
}

// pass2Parts shares parts across states and calls (see
// parallel.FreeList), so the cells of a sparsifier grid take turns on a
// few buffers.
var pass2Parts = parallel.NewFreeList[pass2Part](nil)

// addPass2 folds a batch into the pass-2 tables in w parts per chunk of
// one default batch.
// The tables are linear, so the updates of a batch commute:
// a chunk is (1) routed once — the terminals of U but not V and of V
// but not U come out of one merge of the two sorted terminal lists —
// into packed incidences, (2) sorted by table, and (3) swept table by
// table, each touched table taking one KeyedEdgeSketch batch add per
// subsampling level it reaches while its lanes are in cache. Callers
// pick w with parallel.BatchWorkers; a parallel.Crew routes w parts of
// the chunk and sweeps w table ranges, so each table is written by one
// goroutine and no lock is taken.
//
// The tables are bit-identical to the per-update fold at every w, and
// so is each table's generation: it counts the non-zero adds that
// reached it.
func (tp *TwoPass) addPass2(batch []stream.Update, w int) {
	if len(batch) == 0 {
		return
	}
	c := &tp.crew
	c.Borrow(pass2Parts, w)
	for lo := 0; lo < len(batch); lo += stream.DefaultBatchSize {
		c.Split(batch[lo:min(lo+stream.DefaultBatchSize, len(batch))])
		c.Run(tp, routePass2Part)
		c.Cut(len(tp.tables), c.Below)
		c.Run(tp, sweepPass2Range)
	}
	c.Release(pass2Parts)
}

// routePass2Part routes part k's updates and sorts its incidences. An
// update reaches the tables of the terminals holding exactly one of its
// endpoints, from that endpoint's side; a zero update or a self-loop
// reaches none.
func routePass2Part(tp *TwoPass, k int) {
	c := &tp.crew
	sc, sp := c.Parts[k], &c.Spans[k]
	sc.inc = sc.inc[:0]
	for i := sp.Next; i < sp.Stop; i++ {
		u := c.Chunk[i]
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
	sp.Keys = sc.inc
}

// vertexLevel is the deepest vertex subsampling level Y_j holding a:
// its pass-2 updates reach table levels 0..vertexLevel(a).
func (tp *TwoPass) vertexLevel(a int) int { return min(tp.yLevel.Level(uint64(a)), tp.yMax) }

// sweepPass2Range applies every part's incidences whose table lies in
// part k's range, table by table: the table's edge updates are gathered
// deepest level first — merging the parts' runs, each already in that
// order — so level j's updates are a prefix, and each level the table
// reaches takes one batch add.
func sweepPass2Range(tp *TwoPass, k int) {
	c := &tp.crew
	me, sp := c.Parts[k], &c.Spans[k]
	for e, j := sp.Take(c.Spans); j >= 0; {
		t := incTable(e)
		me.buf, me.lvl = me.buf[:0], me.lvl[:0]
		for ; j >= 0 && incTable(e) == t; e, j = sp.Take(c.Spans) {
			u := c.Chunk[incIndex(e)]
			a, b := u.U, u.V
			if e&1 == 1 {
				a, b = b, a
			}
			me.buf = append(me.buf, sketch.KeyedEdgeUpdate{W: a, V: b, Delta: int64(u.Delta)})
			me.lvl = append(me.lvl, incLevel(e))
		}
		for lv, end := 0, len(me.buf); ; lv++ {
			for end > 0 && me.lvl[end-1] < lv {
				end--
			}
			if end == 0 {
				break
			}
			tp.table(t, lv).AddBatchWith(me.buf[:end], &me.keyed)
		}
	}
}
