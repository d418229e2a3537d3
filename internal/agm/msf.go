package agm

import (
	"fmt"
	"math"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// MSF computes a (1+gamma)-approximate minimum spanning forest from
// linear sketches — the remaining [AGM12a] application the paper lists
// ("minimum spanning trees"). Edge weights are rounded into geometric
// classes; one connectivity sketch is kept per class *prefix* (edges of
// weight at most the class bound), and the forest is assembled
// Kruskal-style: the lightest prefix contributes its spanning forest,
// each heavier prefix then extends it on the contraction of what is
// already connected. Within a class, weights differ by at most a
// (1+gamma) factor, so the result is a (1+gamma)-approximate MSF.
type MSF struct {
	stack    // stack[c] sketches the edges of class <= c
	n        int
	gamma    float64
	maxClass int

	// AddBatch's working memory, reused: the class-partitioned batch and
	// the per-class slot cursors.
	byClass []stream.Update
	end     []int
}

// maxMSFClass is the largest top class index an MSF may have, one
// sketch per class prefix; UnmarshalBinary rejects more.
const maxMSFClass = stream.MaxWeightClass

// MSFClassesFit reports whether NewMSF's sketch for weights in
// [1, wmax] at class ratio 1+gamma (gamma <= 0 meaning the default)
// keeps its top class within what UnmarshalBinary accepts. wmax and
// gamma must be finite. The class count comes from logarithms, with a
// class of slack for rounding, not from WeightClassOf's loop.
func MSFClassesFit(wmax, gamma float64) bool {
	if gamma <= 0 {
		gamma = 1
	}
	return math.Log(max(wmax, 1))/math.Log1p(gamma) < maxMSFClass-1
}

// NewMSF creates the sketch for a graph on n vertices whose edge
// weights lie in [1, wmax], with class ratio 1+gamma.
func NewMSF(seed uint64, n int, wmax, gamma float64) *MSF {
	if gamma <= 0 {
		gamma = 1
	}
	base := 1 + gamma
	maxClass := stream.WeightClassOf(wmax, base) + 1
	m := &MSF{
		stack:    make(stack, maxClass+1),
		n:        n,
		gamma:    gamma,
		maxClass: maxClass,
	}
	for c := range m.stack {
		m.stack[c] = New(hashing.Mix(seed, 0x3f, uint64(c)), n, Config{})
	}
	return m
}

// N returns the vertex count.
func (m *MSF) N() int { return m.n }

// AddUpdate folds a weighted update into every prefix sketch whose
// class bound covers the edge's weight class.
func (m *MSF) AddUpdate(u stream.Update) {
	m.AddBatch([]stream.Update{u})
}

// AddBatch folds a batch of weighted updates: the batch is partitioned
// by weight class once (a stable counting sort), and prefix sketch p
// takes the updates of classes 0..p — a prefix of the partitioned
// batch — in one AddBatch.
func (m *MSF) AddBatch(batch []stream.Update) { m.AddBatchOpts(batch, serial) }

// AddBatchOpts is AddBatch with each prefix sketch's ingest fanned out
// across the policy's workers (Sketch.AddBatchOpts).
func (m *MSF) AddBatchOpts(batch []stream.Update, pol *parallel.Policy) {
	class := func(u stream.Update) int {
		return stream.WeightClassAtMost(u.W, 1+m.gamma, m.maxClass)
	}
	if len(m.end) != m.maxClass+1 {
		m.end = make([]int, m.maxClass+1)
	}
	end := m.end // class c's next slot; its end once scattered
	clear(end)
	for _, u := range batch {
		if c := class(u); c < m.maxClass {
			end[c+1]++
		}
	}
	for c := 1; c <= m.maxClass; c++ {
		end[c] += end[c-1]
	}
	if cap(m.byClass) < len(batch) {
		m.byClass = make([]stream.Update, len(batch))
	}
	sorted := m.byClass[:len(batch)]
	for _, u := range batch {
		c := class(u)
		sorted[end[c]] = u
		end[c]++
	}
	for p, s := range m.stack {
		s.AddBatchOpts(sorted[:end[p]], pol)
	}
}

// Merge adds another MSF sketch built with the same seed and
// parameters; the result sketches the union of the two streams.
func (m *MSF) Merge(o *MSF) error {
	if m.n != o.n || m.gamma != o.gamma || m.maxClass != o.maxClass {
		return fmt.Errorf("agm: merging incompatible MSF sketches (n %d/%d, gamma %g/%g, classes %d/%d)",
			m.n, o.n, m.gamma, o.gamma, m.maxClass, o.maxClass)
	}
	return m.merge(o.stack, "msf")
}

// Forest extracts the approximate MSF: edges tagged with the upper
// bound of their weight class (so the returned total weight is within
// (1+gamma) of exact, assuming the per-class forests succeed whp).
func (m *MSF) Forest() ([]graph.Edge, error) {
	return m.ForestOpts(parallel.Default())
}

// ForestOpts is the policy-driven form of Forest: the policy supplies
// cancellation and the tracer to each class prefix's Borůvka rounds;
// the classes run in order (each contracts the previous) and the forest
// is bit-identical to Forest.
func (m *MSF) ForestOpts(p *parallel.Policy) ([]graph.Edge, error) {
	uf := graph.NewUnionFind(m.n)
	var out []graph.Edge
	base := 1 + m.gamma
	for c := 0; c <= m.maxClass; c++ {
		if uf.Sets() == 1 {
			break
		}
		// Current groups: components connected by lighter classes.
		groups := map[int][]int{}
		for v := 0; v < m.n; v++ {
			r := uf.Find(v)
			groups[r] = append(groups[r], v)
		}
		groupList := make([][]int, 0, len(groups))
		// Deterministic order for reproducibility.
		roots := make([]int, 0, len(groups))
		for r := range groups {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			groupList = append(groupList, groups[r])
		}
		f, err := m.stack[c].SpanningForestOpts(groupList, p)
		if err != nil {
			return nil, fmt.Errorf("agm: msf class %d: %w", c, err)
		}
		w := math.Pow(base, float64(c+1))
		for _, e := range f {
			if uf.Union(e.U, e.V) {
				out = append(out, graph.Edge{U: e.U, V: e.V, W: w})
			}
		}
	}
	return out, nil
}
