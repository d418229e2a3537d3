// Package graph provides the static weighted-graph substrate: the graph
// type itself, workload generators, exact shortest-path computation
// (ground truth for spanner verification), connectivity utilities and a
// union-find structure used by the Borůvka-style spanning forest.
package graph

import "fmt"

// Edge is an undirected weighted edge with endpoints U < V.
type Edge struct {
	U, V int
	W    float64
}

// Canon returns the edge with endpoints in canonical (U < V) order.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is a simple undirected weighted graph on vertices 0..N-1,
// stored as a sorted edge set plus adjacency lists.
type Graph struct {
	n     int
	edges map[[2]int]float64
	adj   [][]halfEdge
	stale bool
}

type halfEdge struct {
	to int
	w  float64
}

// New creates an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, edges: make(map[[2]int]float64)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts (or overwrites) the undirected edge {u, v} with
// weight w. Self-loops are rejected, matching the paper's model.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u > v {
		u, v = v, u
	}
	g.edges[[2]int{u, v}] = w
	g.stale = true
}

// AddUnitEdge inserts {u, v} with weight 1.
func (g *Graph) AddUnitEdge(u, v int) { g.AddEdge(u, v, 1) }

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	delete(g.edges, [2]int{u, v})
	g.stale = true
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := g.edges[[2]int{u, v}]
	return ok
}

// Weight returns the weight of {u, v} and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if u > v {
		u, v = v, u
	}
	w, ok := g.edges[[2]int{u, v}]
	return w, ok
}

// Edges returns all edges in canonical sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for k, w := range g.edges {
		out = append(out, Edge{U: k[0], V: k[1], W: w})
	}
	SortEdges(out, g.n)
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for k, w := range g.edges {
		c.edges[k] = w
	}
	return c
}

func (g *Graph) rebuild() {
	if !g.stale && g.adj != nil {
		return
	}
	// Appending the (U, V)-sorted edges leaves every list ascending: a
	// vertex x meets its neighbors below it (edges (U, x), by U) before
	// those above it (edges (x, V), by V).
	edges := g.Edges()
	deg := make([]int, g.n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	slab := make([]halfEdge, 2*len(edges))
	g.adj = make([][]halfEdge, g.n)
	for v, d := range deg {
		g.adj[v], slab = slab[:0:d], slab[d:]
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], halfEdge{to: e.V, w: e.W})
		g.adj[e.V] = append(g.adj[e.V], halfEdge{to: e.U, w: e.W})
	}
	g.stale = false
}

// Neighbors returns the sorted neighbor ids of u.
func (g *Graph) Neighbors(u int) []int {
	g.rebuild()
	out := make([]int, len(g.adj[u]))
	for i, he := range g.adj[u] {
		out[i] = he.to
	}
	return out
}

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u int) int {
	g.rebuild()
	return len(g.adj[u])
}

// BFS returns hop distances from src; unreachable vertices get -1.
func (g *Graph) BFS(src int) []int {
	g.rebuild()
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 1, g.n) // each vertex enters once
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, he := range g.adj[u] {
			if dist[he.to] == -1 {
				dist[he.to] = dist[u] + 1
				queue = append(queue, he.to)
			}
		}
	}
	return dist
}

// Dijkstra returns weighted shortest-path distances from src;
// unreachable vertices get +Inf.
func (g *Graph) Dijkstra(src int) []float64 {
	g.rebuild()
	const inf = 1e308
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &distHeap{items: []distItem{{v: src, d: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, he := range g.adj[it.v] {
			nd := it.d + he.w
			if nd < dist[he.to] {
				dist[he.to] = nd
				h.push(distItem{v: he.to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Components returns the component id of each vertex and the count.
func (g *Graph) Components() (ids []int, count int) {
	g.rebuild()
	ids = make([]int, g.n)
	for i := range ids {
		ids[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if ids[s] != -1 {
			continue
		}
		ids[s] = count
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, he := range g.adj[u] {
				if ids[he.to] == -1 {
					ids[he.to] = count
					stack = append(stack, he.to)
				}
			}
		}
		count++
	}
	return ids, count
}

// Connected reports whether the graph has a single component (true for
// the empty graph on one vertex; false on zero-edge multi-vertex graphs).
func (g *Graph) Connected() bool {
	_, c := g.Components()
	return c <= 1
}

// IsSubgraphOf reports whether every edge of g appears in h.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	for k := range g.edges {
		if !h.HasEdge(k[0], k[1]) {
			return false
		}
	}
	return true
}

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	t := 0.0
	for _, w := range g.edges {
		t += w
	}
	return t
}

// CutWeight returns the total weight of edges crossing the cut defined
// by side[v] (true = one side, false = the other).
func (g *Graph) CutWeight(side []bool) float64 {
	t := 0.0
	for k, w := range g.edges {
		if side[k[0]] != side[k[1]] {
			t += w
		}
	}
	return t
}
