package parallel

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// weighted is a crew state whose keys [0, len(w)) weigh w[key].
type weighted struct {
	w    []int
	crew Crew[*weighted, struct{}]
}

func (s *weighted) below(key int) int {
	count := 0
	for _, x := range s.w[:key] {
		count += x
	}
	return count
}

// checkCut asserts that the crew's ranges cover [0, n) in order, each
// holding within one key's weight of an equal share.
func checkCut(t *testing.T, label string, s *weighted) {
	t.Helper()
	n, w := len(s.w), len(s.crew.Spans)
	total, heaviest := s.below(n), slices.Max(append([]int{0}, s.w...))
	lo := 0
	for k, sp := range s.crew.Spans {
		if sp.Lo != lo || sp.Hi < sp.Lo || sp.Hi > n {
			t.Fatalf("%s: range %d is [%d, %d) after one ending at %d (n = %d)", label, k, sp.Lo, sp.Hi, lo, n)
		}
		share := s.below(sp.Hi) - s.below(sp.Lo)
		if diff := share*w - total; diff > w*(heaviest+1) || -diff > w*(heaviest+1) {
			t.Errorf("%s: range %d holds %d of %d at w = %d (heaviest key %d)", label, k, share, total, w, heaviest)
		}
		lo = sp.Hi
	}
	if lo != n {
		t.Fatalf("%s: the ranges end at %d, not n = %d", label, lo, n)
	}
}

// TestCutCoversKeys: the cut covers [0, n) in w ordered ranges, each
// ending between keys and holding within one key's weight of total/w —
// on random weights, on all-zero weights and with more ranges than keys.
func TestCutCoversKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 17, 200} {
		for _, w := range []int{1, 2, 3, 8} {
			for _, shape := range []string{"random", "zero", "sparse"} {
				s := &weighted{w: make([]int, n)}
				for i := range s.w {
					switch shape {
					case "random":
						s.w[i] = rng.Intn(10)
					case "sparse":
						if rng.Intn(5) == 0 {
							s.w[i] = 1 + rng.Intn(40)
						}
					}
				}
				s.crew.Borrow(nil, w)
				s.crew.Cut(n, s.below)
				checkCut(t, fmt.Sprintf("%s n=%d w=%d", shape, n, w), s)
			}
		}
	}
}

// TestCutHubKey: a hub key holding more than 1/w of the weight ends the
// range it falls in, takes no more than a share's worth of other keys
// with it, and gets a range of its own when the keys before it fill
// whole shares.
func TestCutHubKey(t *testing.T) {
	for _, w := range []int{2, 3, 6} {
		for _, hub := range []int{0, 5, 10, 19} {
			s := &weighted{w: make([]int, 20)}
			for i := range s.w {
				s.w[i] = 1
			}
			s.w[hub] = 40
			s.crew.Borrow(nil, w)
			s.crew.Cut(len(s.w), s.below)
			label := fmt.Sprintf("w=%d hub=%d", w, hub)
			checkCut(t, label, s)
			for _, sp := range s.crew.Spans {
				if sp.Lo <= hub && hub < sp.Hi {
					if sp.Hi != hub+1 {
						t.Errorf("%s: the hub's range [%d, %d) runs past it", label, sp.Lo, sp.Hi)
					}
					if others := s.below(sp.Hi) - s.below(sp.Lo) - 40; others*w >= s.below(len(s.w)) {
						t.Errorf("%s: the hub's range [%d, %d) carries %d more", label, sp.Lo, sp.Hi, others)
					}
				}
			}
		}
	}
	// 10 light keys fill one of six shares of 60 exactly: the hub's range
	// is the hub alone.
	s := &weighted{w: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 40, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}
	s.crew.Borrow(nil, 6)
	s.crew.Cut(len(s.w), s.below)
	if sp := s.crew.Spans[1]; sp.Lo != 10 || sp.Hi != 11 {
		t.Errorf("the hub's range is [%d, %d), want [10, 11)", sp.Lo, sp.Hi)
	}
}

// TestCrewKeySweep: parts' sorted key<<32 | payload lists, cut by Below
// and swept through Take, deliver every incidence exactly once,
// each sweeper only those of its range, in order.
func TestCrewKeySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 50
	for _, w := range []int{1, 2, 3, 8} {
		var c Crew[struct{}, struct{}]
		c.Borrow(nil, w)
		var want []uint64
		for k := range c.Spans {
			var keys []uint64
			for i := 0; i < 40; i++ {
				key := rng.Intn(n)
				if k == 0 && i%2 == 0 {
					key = 7 // a hub reached by most of one part
				}
				keys = append(keys, uint64(key)<<32|uint64(i)<<8|uint64(k))
			}
			slices.Sort(keys)
			c.Spans[k].Keys = keys
			want = append(want, keys...)
		}
		slices.Sort(want)
		c.Cut(n, c.Below)
		var got []uint64
		for k := range c.Spans {
			sp := &c.Spans[k]
			for e, j := sp.Take(c.Spans); j >= 0; e, j = sp.Take(c.Spans) {
				if key := int(e >> 32); key < sp.Lo || key >= sp.Hi || int(e&0xff) != j {
					t.Fatalf("w=%d: sweeper %d of [%d, %d) took key %d from part %d, listed by part %d", w, k, sp.Lo, sp.Hi, key, j, e&0xff)
				}
				got = append(got, e)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("w=%d: the sweep took %d incidences out of order or not once each (want %d)", w, len(got), len(want))
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// runs records the calls of a crew phase.
type runs struct {
	calls []int
	ids   []uint64
	crew  Crew[*runs, struct{}]
}

func record(r *runs, k int) {
	count(r, k)
	r.ids[k] = goid()
}

func count(r *runs, k int) { r.calls[k]++ }

// TestCrewRun: the runner calls every part exactly once, part 0 on the
// calling goroutine and each other part on a goroutine of its own, and
// at one part starts no goroutine.
func TestCrewRun(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		r := &runs{calls: make([]int, w), ids: make([]uint64, w)}
		r.crew.Borrow(nil, w)
		r.crew.Run(r, record)
		for k := range r.calls {
			if c := r.calls[k]; c != 1 {
				t.Errorf("w=%d: part %d ran %d times", w, k, c)
			}
		}
		if r.ids[0] != goid() {
			t.Errorf("w=%d: part 0 ran on goroutine %d, not the caller's %d", w, r.ids[0], goid())
		}
		for k := 1; k < w; k++ {
			if r.ids[k] == r.ids[0] || slices.Contains(r.ids[1:k], r.ids[k]) {
				t.Errorf("w=%d: part %d shared goroutine %d", w, k, r.ids[k])
			}
		}
	}
	r := &runs{calls: make([]int, 1), ids: make([]uint64, 1)}
	r.crew.Borrow(nil, 1)
	if allocs := testing.AllocsPerRun(10, func() { r.crew.Run(r, count) }); allocs != 0 {
		t.Errorf("one part: %v allocs per run, want 0", allocs)
	}
}

// part is a scratch the free-list test hands out.
type part struct {
	released bool
	owner    *int
}

// TestFreeList: a crew borrows its parts from the free list and gives
// them back last first, each through the release hook before it parks;
// the list parks at most its cap, and the next call borrows the parked
// parts back in the same roles.
func TestFreeList(t *testing.T) {
	hooked := 0
	free := NewFreeList(func(p *part) {
		hooked++
		p.released, p.owner = true, nil
	})
	if free.Cap() != runtime.GOMAXPROCS(0) {
		t.Skipf("GOMAXPROCS moved from %d to %d since start", free.Cap(), runtime.GOMAXPROCS(0))
	}
	var c Crew[struct{}, part]
	w := free.Cap()
	c.Borrow(free, w)
	first := slices.Clone(c.Parts)
	owner := 1
	for _, p := range c.Parts {
		p.owner = &owner
	}
	c.Release(free)
	if hooked != w {
		t.Errorf("the release hook ran %d times for %d parts", hooked, w)
	}
	if len(c.Parts) != 0 || c.Chunk != nil {
		t.Error("the crew kept its parts or chunk after Release")
	}
	c.Borrow(free, w)
	for k, p := range c.Parts {
		if p != first[k] {
			t.Errorf("part %d came back in another role", k)
		}
		if !p.released || p.owner != nil {
			t.Errorf("part %d parked without its release hook", k)
		}
	}
	c.Release(free)
	c.Borrow(free, w+3)
	c.Release(free)
	if len(free.list) != free.Cap() {
		t.Errorf("after %d parts came back the list parks %d, want its cap %d", w+3, len(free.list), free.Cap())
	}
}
