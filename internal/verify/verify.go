// Package verify provides the ground-truth checkers for the quantities
// the paper's theorems bound: multiplicative stretch, additive
// distortion, spectral ε, and cut preservation. The guarantee tests of
// the spanner, sparsifier and baseline packages assert their bounds
// with these checkers, and the root package exposes them to callers.
package verify

import (
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/linalg"
)

// StretchReport summarizes a multiplicative-spanner verification.
type StretchReport struct {
	// MaxStretch is max over checked pairs of d_H / d_G.
	MaxStretch float64
	// MeanStretch is the average over checked pairs.
	MeanStretch float64
	// Pairs is the number of (connected) pairs checked.
	Pairs int
	// Disconnected counts pairs connected in G but not in H — any
	// nonzero value means the spanner is invalid.
	Disconnected int
	// Shortcuts counts pairs with d_H < d_G — nonzero means H is not a
	// subgraph metric (invalid).
	Shortcuts int
}

// Stretch verifies H against G over BFS trees from every
// ⌊n/sources⌋-th vertex, starting at 0 — so at least `sources` of them
// (n = 100, sources = 16 checks 17) — or from every vertex if
// sources <= 0 or n <= sources. For weighted graphs use StretchWeighted.
func Stretch(g, h *graph.Graph, sources int) StretchReport {
	var rep StretchReport
	n := g.N()
	step := 1
	if sources > 0 && n > sources {
		step = n / sources
	}
	sum := 0.0
	for src := 0; src < n; src += step {
		dg := g.BFS(src)
		dh := h.BFS(src)
		for v := 0; v < n; v++ {
			if dg[v] <= 0 {
				continue
			}
			if dh[v] == -1 {
				rep.Disconnected++
				continue
			}
			if dh[v] < dg[v] {
				rep.Shortcuts++
			}
			s := float64(dh[v]) / float64(dg[v])
			sum += s
			rep.Pairs++
			if s > rep.MaxStretch {
				rep.MaxStretch = s
			}
		}
	}
	if rep.Pairs > 0 {
		rep.MeanStretch = sum / float64(rep.Pairs)
	}
	return rep
}

// StretchWeighted verifies weighted distances (Dijkstra) with the same
// semantics as Stretch.
func StretchWeighted(g, h *graph.Graph, sources int) StretchReport {
	var rep StretchReport
	n := g.N()
	step := 1
	if sources > 0 && n > sources {
		step = n / sources
	}
	sum := 0.0
	for src := 0; src < n; src += step {
		dg := g.Dijkstra(src)
		dh := h.Dijkstra(src)
		for v := 0; v < n; v++ {
			if v == src || dg[v] >= 1e307 {
				continue
			}
			if dh[v] >= 1e307 {
				rep.Disconnected++
				continue
			}
			if dh[v] < dg[v]-1e-9 {
				rep.Shortcuts++
			}
			s := dh[v] / dg[v]
			sum += s
			rep.Pairs++
			if s > rep.MaxStretch {
				rep.MaxStretch = s
			}
		}
	}
	if rep.Pairs > 0 {
		rep.MeanStretch = sum / float64(rep.Pairs)
	}
	return rep
}

// AdditiveReport summarizes an additive-spanner verification.
type AdditiveReport struct {
	// MaxError is max over checked pairs of d_H − d_G.
	MaxError int
	// MeanError is the average over checked pairs.
	MeanError float64
	// Pairs, Disconnected, Shortcuts as in StretchReport.
	Pairs        int
	Disconnected int
	Shortcuts    int
}

// Additive verifies the additive distortion of H against G.
func Additive(g, h *graph.Graph, sources int) AdditiveReport {
	var rep AdditiveReport
	n := g.N()
	step := 1
	if sources > 0 && n > sources {
		step = n / sources
	}
	sum := 0
	for src := 0; src < n; src += step {
		dg := g.BFS(src)
		dh := h.BFS(src)
		for v := 0; v < n; v++ {
			if dg[v] < 0 || v == src {
				continue
			}
			if dh[v] == -1 {
				rep.Disconnected++
				continue
			}
			if dh[v] < dg[v] {
				rep.Shortcuts++
			}
			e := dh[v] - dg[v]
			sum += e
			rep.Pairs++
			if e > rep.MaxError {
				rep.MaxError = e
			}
		}
	}
	if rep.Pairs > 0 {
		rep.MeanError = float64(sum) / float64(rep.Pairs)
	}
	return rep
}

// SpectralEpsilon is the exact spectral-approximation measure, see
// linalg.SpectralEpsilon. Exposed here so harness code imports one
// verification package.
func SpectralEpsilon(g, h *graph.Graph) (float64, error) {
	return linalg.SpectralEpsilon(g, h)
}

// CutEpsilon measures max over `cuts` random cuts of
// |w_H(cut)/w_G(cut) − 1| — the combinatorial shadow of spectral
// approximation (restrict x to binary vectors). Cuts with zero G-weight
// are skipped.
func CutEpsilon(g, h *graph.Graph, cuts int, seed uint64) float64 {
	rng := hashing.NewSplitMix64(seed)
	n := g.N()
	worst := 0.0
	for c := 0; c < cuts; c++ {
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Next()&1 == 1
		}
		wg := g.CutWeight(side)
		if wg == 0 {
			continue
		}
		wh := h.CutWeight(side)
		if d := math.Abs(wh/wg - 1); d > worst {
			worst = d
		}
	}
	return worst
}
