package parallel

// The fan-out bookkeeping of the batch kernels (agm's AddBatchOpts,
// spanner's pass 2, the sparsifier grid): the updates of a batch
// commute, so disjoint key ranges — vertices, tables, cells — can be
// written by different goroutines without a lock. A kernel keeps its
// routing, its per-key apply and its buffers; its phases are top-level
// functions, since a closure handed to Run escapes and a kernel's
// one-part path must allocate nothing.

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"dynstream/internal/stream"
)

// FreeList shares part scratch across states and calls: a kernel holds
// one per part only while a call runs, so many states take turns on a
// few buffers. It is not a sync.Pool, which every collection empties:
// re-making a multi-megabyte scratch per GC cycle costs more than
// keeping one per concurrent caller.
type FreeList[P any] struct {
	mu      sync.Mutex
	list    []*P
	keep    int
	release func(*P)
}

// NewFreeList returns an empty free list that parks at most GOMAXPROCS
// parts (as when it is made). release, when not nil, runs on every part
// given back, so a parked part keeps nothing alive the caller dropped.
func NewFreeList[P any](release func(*P)) *FreeList[P] {
	return &FreeList[P]{keep: runtime.GOMAXPROCS(0), release: release}
}

// Cap reports the most parts the list parks.
func (f *FreeList[P]) Cap() int { return f.keep }

// get takes the most recently parked part, or a new one.
func (f *FreeList[P]) get() *P {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k := len(f.list); k > 0 {
		p := f.list[k-1]
		f.list = f.list[:k-1]
		return p
	}
	return new(P)
}

// put runs the release hook on p and parks it, unless the list is full.
func (f *FreeList[P]) put(p *P) {
	if f.release != nil {
		f.release(p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.list) < f.keep {
		f.list = append(f.list, p)
	}
}

// Span is one part's share of a chunk and of the key space: it routes
// Chunk[Next:Stop] into Keys, its sorted key<<32 | payload incidences,
// and then sweeps the keys [Lo, Hi) of every part's Keys, with At as its
// cursors into them.
type Span struct {
	Next, Stop int
	Lo, Hi     int
	Keys       []uint64
	At         []int
}

// Crew is the bookkeeping of a kernel call on a state S whose parts use
// scratch P; the zero value is ready. Kept on the state, it lets a
// warmed call allocate nothing but its goroutines. Copies of a crew must
// not run at once.
type Crew[S, P any] struct {
	Parts []*P            // each part's scratch, borrowed for the call
	Spans []Span          // each part's run, range and cursors
	Chunk []stream.Update // the chunk in hand
	wg    *sync.WaitGroup
}

// Borrow readies the crew for a call with w parts, each with a scratch
// from free; a kernel whose parts need no scratch passes nil and gets
// none.
func (c *Crew[S, P]) Borrow(free *FreeList[P], w int) {
	if cap(c.Spans) < w { // every span's cursors cover cap(c.Spans) parts
		c.Spans, c.wg = make([]Span, w), new(sync.WaitGroup)
		for k := range c.Spans {
			c.Spans[k].At = make([]int, w)
		}
	}
	c.Spans = c.Spans[:w]
	for free != nil && len(c.Parts) < w {
		c.Parts = append(c.Parts, free.get())
	}
}

// Release gives the parts back to free, last first, so that the next
// call borrows them back in the same roles with their buffers already
// sized; the crew keeps no reference to them or to the chunk.
func (c *Crew[S, P]) Release(free *FreeList[P]) {
	for k := len(c.Parts) - 1; k >= 0; k-- {
		free.put(c.Parts[k])
	}
	clear(c.Parts)
	c.Parts, c.Chunk = c.Parts[:0], nil
	for k := range c.Spans {
		c.Spans[k].Keys = nil
	}
}

// Split hands the chunk to the parts in contiguous runs of about equal
// length.
func (c *Crew[S, P]) Split(chunk []stream.Update) {
	c.Chunk = chunk
	w := len(c.Spans)
	for k := range c.Spans {
		c.Spans[k].Next, c.Spans[k].Stop = k*len(chunk)/w, (k+1)*len(chunk)/w
	}
}

// Pending reports whether a part has updates of its run left to route.
func (c *Crew[S, P]) Pending() bool {
	for k := range c.Spans {
		if c.Spans[k].Next < c.Spans[k].Stop {
			return true
		}
	}
	return false
}

// Run calls phase(s, k) for every part k — part 0 on the calling
// goroutine, each other one on its own — and returns when all have
// returned.
func (c *Crew[S, P]) Run(s S, phase func(s S, k int)) {
	for k := 1; k < len(c.Spans); k++ {
		c.wg.Add(1)
		k := k // a go statement with arguments would allocate a second closure
		go func() {
			defer c.wg.Done()
			phase(s, k)
		}()
	}
	phase(s, 0)
	c.wg.Wait()
}

// Cut splits the keys [0, n) into one range per part, in order, each
// holding about an equal share of below(n), where below(key) is the
// weight of the keys under key. A range ends between two keys, so a key
// heavier than a share ends the range it falls in. Each part's cursors
// are set to the first incidence of its range in every part's Keys.
func (c *Crew[S, P]) Cut(n int, below func(key int) int) {
	total, w, lo := below(n), len(c.Spans), 0
	for k := range c.Spans {
		hi := n
		if k < w-1 {
			share := (k + 1) * total / w
			hi = sort.Search(n, func(key int) bool { return below(key) >= share })
		}
		c.Spans[k].Lo, c.Spans[k].Hi = lo, hi
		for j := range c.Spans {
			c.Spans[k].At[j] = keyStart(c.Spans[j].Keys, lo)
		}
		lo = hi
	}
}

// Below counts the incidences of the keys under key in every part's
// Keys: the weight Cut balances when parts sweep what they routed.
func (c *Crew[S, P]) Below(key int) int {
	count := 0
	for k := range c.Spans {
		count += keyStart(c.Spans[k].Keys, key)
	}
	return count
}

// keyStart is the position of key's first incidence in a sorted list,
// or of the first one past it.
func keyStart(keys []uint64, key int) int {
	i, _ := slices.BinarySearch(keys, uint64(key)<<32)
	return i
}

// Take takes the smallest incidence at sp's cursors whose key lies in
// sp's range, and advances the cursor of j, the part whose list held
// it; j is −1 once the range is swept. A sweep thus meets a key's
// incidences from every part together, in order.
func (sp *Span) Take(spans []Span) (e uint64, j int) {
	j, end := -1, uint64(sp.Hi)<<32
	for i := range spans {
		if keys := spans[i].Keys; sp.At[i] < len(keys) && keys[sp.At[i]] < end && (j < 0 || keys[sp.At[i]] < e) {
			e, j = keys[sp.At[i]], i
		}
	}
	if j >= 0 {
		sp.At[j]++
	}
	return e, j
}
