package graph

import (
	"math"

	"dynstream/internal/hashing"
)

// The generators below produce the synthetic workloads used by the
// experiments: the paper is a theory paper with no datasets, so the
// inputs are the standard families its claims quantify over — random
// graphs G(n, p), structured graphs stressing distances (paths, grids,
// barbells) and a heavy-tailed family (preferential attachment)
// matching the "massive social graph" motivation of the introduction.

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, seed uint64) *Graph {
	g := New(n)
	rng := hashing.NewSplitMix64(seed)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddUnitEdge(u, v)
			}
		}
	}
	return g
}

// Path returns the path 0-1-…-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddUnitEdge(i, i+1)
	}
	return g
}

// Cycle returns the n-cycle.
func Cycle(n int) *Graph {
	g := Path(n)
	if n > 2 {
		g.AddUnitEdge(0, n-1)
	}
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddUnitEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddUnitEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddUnitEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddUnitEdge(u, v)
		}
	}
	return g
}

// Barbell returns two cliques of size half joined by a path of length
// bridge — the canonical hard instance for cut/spectral sparsification
// (the bridge edges have high effective resistance and must survive).
func Barbell(half, bridge int) *Graph {
	n := 2*half + bridge
	g := New(n)
	for u := 0; u < half; u++ {
		for v := u + 1; v < half; v++ {
			g.AddUnitEdge(u, v)
		}
	}
	off := half + bridge
	for u := 0; u < half; u++ {
		for v := u + 1; v < half; v++ {
			g.AddUnitEdge(off+u, off+v)
		}
	}
	prev := half - 1
	for i := 0; i < bridge; i++ {
		g.AddUnitEdge(prev, half+i)
		prev = half + i
	}
	g.AddUnitEdge(prev, off)
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph {
	n := 1 << uint(d)
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				g.AddUnitEdge(u, v)
			}
		}
	}
	return g
}

// PreferentialAttachment returns a Barabási–Albert style graph where
// each new vertex attaches to m existing vertices chosen proportionally
// to degree — the heavy-tailed "social network" workload.
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	if m < 1 {
		m = 1
	}
	g := New(n)
	rng := hashing.NewSplitMix64(seed)
	// Repeated-endpoint list: sampling an index uniformly samples a
	// vertex proportionally to degree.
	var endpoints []int
	start := m + 1
	if start > n {
		start = n
	}
	for u := 0; u < start; u++ {
		for v := u + 1; v < start; v++ {
			g.AddUnitEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	for u := start; u < n; u++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != u {
				chosen[t] = true
			}
		}
		for v := range chosen {
			g.AddUnitEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return g
}

// RandomWeighted assigns each edge of g an independent weight in
// [wmin, wmax] sampled log-uniformly (weights span several scales, as
// the weight-class reduction of Remark 14 expects).
func RandomWeighted(g *Graph, wmin, wmax float64, seed uint64) *Graph {
	rng := hashing.NewSplitMix64(seed)
	out := New(g.N())
	lmin, lmax := math.Log(wmin), math.Log(wmax)
	for _, e := range g.Edges() {
		w := math.Exp(lmin + rng.Float64()*(lmax-lmin))
		out.AddEdge(e.U, e.V, w)
	}
	return out
}

// ConnectedGNP returns a G(n, p) graph patched to be connected by
// linking consecutive components with single edges (workloads for
// distance experiments need one component to make stretch well-defined).
func ConnectedGNP(n int, p float64, seed uint64) *Graph {
	g := GNP(n, p, seed)
	ids, count := g.Components()
	if count <= 1 {
		return g
	}
	rep := make([]int, count)
	for i := range rep {
		rep[i] = -1
	}
	for v, id := range ids {
		if rep[id] == -1 {
			rep[id] = v
		}
	}
	for i := 1; i < count; i++ {
		g.AddUnitEdge(rep[i-1], rep[i])
	}
	return g
}

// Additional workload families used by the extended experiments: a
// locally-dense family where spanner compression is visible per weight
// class, a small-world family, and random regular graphs.

// RingOfCliques returns `count` cliques of size `size` arranged in a
// ring, consecutive cliques joined by a single edge. Locally dense,
// globally sparse: spanners compress the cliques but must keep every
// ring edge.
func RingOfCliques(count, size int) *Graph {
	n := count * size
	g := New(n)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				g.AddUnitEdge(base+u, base+v)
			}
		}
	}
	for c := 0; c < count; c++ {
		from := c*size + size - 1
		to := ((c + 1) % count) * size
		if from != to && !g.HasEdge(from, to) {
			g.AddUnitEdge(from, to)
		}
	}
	return g
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors, with each edge rewired
// to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	if k < 2 {
		k = 2
	}
	if k >= n {
		k = n - 1
	}
	g := New(n)
	rng := hashing.NewSplitMix64(seed)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire to a random non-neighbor.
				for tries := 0; tries < 20; tries++ {
					w := rng.Intn(n)
					if w != u && !g.HasEdge(u, w) {
						v = w
						break
					}
				}
			}
			if u != v && !g.HasEdge(u, v) {
				g.AddUnitEdge(u, v)
			}
		}
	}
	return g
}

// RandomRegular returns an approximately d-regular graph via the
// pairing model (retrying collisions; the result may be slightly
// irregular if d·n is odd or retries exhaust).
func RandomRegular(n, d int, seed uint64) *Graph {
	g := New(n)
	rng := hashing.NewSplitMix64(seed)
	// Stub list: d copies of every vertex, randomly paired.
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	// Shuffle and pair; skip self-loops and duplicates.
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v && !g.HasEdge(u, v) {
			g.AddUnitEdge(u, v)
		}
	}
	return g
}
