package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into that layer. Spans of one operation
// share Op; Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same code runs traced and untraced.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil recorder) is inert.
type spanRef struct {
	r  *recorder
	id int
	op int
}

func (r *recorder) open(name string, parent, op int) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return spanRef{r: r, id: id, op: op}
}

// root opens a span with no parent for operation op.
func (r *recorder) root(name string, op int) spanRef { return r.open(name, -1, op) }

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.r == nil {
		return spanRef{}
	}
	return s.r.open(name, s.id, s.op)
}

func (s spanRef) end() {
	if s.r == nil {
		return
	}
	now := int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	s.r.spans[s.id].End = now
	s.r.mu.Unlock()
}

// snapshot returns the completed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap when
// they ran on different goroutines, so the cover is a union).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTotals sums, per span name, the count, wall time and self time.
type layerTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	WallMs float64 `json:"wall_ms"`
	SelfMs float64 `json:"self_ms"`
}

func totals(spans []span) []layerTotal {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].WallMs += float64(s.End-s.Start) / 1e6
		out[i].SelfMs += float64(self[s.ID]) / 1e6
	}
	return out
}

// wallMs is the summed wall time of every span called name.
func wallMs(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// selfMs is the summed self time of every span called name.
func selfMs(spans []span, name string) float64 {
	self := selfTimes(spans)
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += self[s.ID]
		}
	}
	return float64(ns) / 1e6
}
