package sketch

import (
	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// L0Routes is the packed routing of a chunk of updates through the R
// families of a sampler grid (NewL0Grid): each update is routed once
// per family, in place, and can then be applied to any number of R-slot
// strips of the grid in any order — the two endpoints of an AGM edge
// update, visited when a vertex-ordered sweep reaches them.
//
// Layout, update-major and family-minor, two parallel streams:
//
//	fkeys  one fingerprint power per (update, family, level)
//	cells  per (update, family): the level count, then rows uint16 cell
//	       indices per level
//
// start[i] is update i's first index into fkeys; its first index into
// cells follows from it (start[i]·rows + i·R, one count per earlier
// entry). An update reaches two levels per family in expectation, about
// 32 bytes per entry.
type L0Routes struct {
	fams   []*L0Family
	rows   int
	room   int // fkeys slots one update can need: every family's deepest level
	n      int // updates routed
	used   int // fkeys slots filled
	keys   []uint64
	deltas []int64
	start  []uint32
	fkeys  []uint64
	cells  []uint16
	hash   []uint64
}

// Reset empties the buffer and sizes it for up to `updates` updates
// through fams; storage is reused when it is already large enough.
// Level slots are provisioned for the expected two per entry plus 1/8:
// Route reports a full buffer rather than growing, so a stream of
// unusually deep keys ends its chunk early instead of reallocating.
func (r *L0Routes) Reset(fams []*L0Family, updates int) {
	r.fams, r.rows, r.room = fams, fams[0].rows, 0
	deepest := 0
	for _, f := range fams {
		r.room += len(f.levels)
		deepest = max(deepest, len(f.levels))
	}
	r.Clear()
	slots := updates*len(fams)*17/8 + r.room
	if cap(r.keys) < updates || cap(r.fkeys) < slots || cap(r.cells) < slots*r.rows+updates*len(fams) {
		r.keys = make([]uint64, updates)
		r.deltas = make([]int64, updates)
		r.start = make([]uint32, updates)
		r.fkeys = make([]uint64, slots)
		r.cells = make([]uint16, slots*r.rows+updates*len(fams))
	}
	r.keys, r.deltas, r.start = r.keys[:updates], r.deltas[:updates], r.start[:updates]
	if len(r.hash) < deepest*r.rows {
		r.hash = make([]uint64, deepest*r.rows)
	}
}

// Clear empties the buffer, keeping its sizing.
func (r *L0Routes) Clear() { r.n, r.used = 0, 0 }

// Release empties the buffer and drops its families, so a parked buffer
// keeps no sketch's randomness alive; Reset attaches it again.
func (r *L0Routes) Release() {
	r.Clear()
	r.fams = nil
}

// Len returns the number of updates routed since Reset or Clear.
func (r *L0Routes) Len() int { return r.n }

// Route appends the routing of x[key] += delta through every family
// and reports whether it fit; on false nothing was written and the
// caller applies what it has, clears, and routes again. The key's
// powers are computed once and shared by every family's hashes.
func (r *L0Routes) Route(key uint64, delta int64) bool {
	i, p := r.n, r.used
	if i == len(r.keys) || p+r.room > len(r.fkeys) {
		return false
	}
	r.keys[i], r.deltas[i], r.start[i] = key, delta, uint32(p)
	c := p*r.rows + i*len(r.fams)
	var pw hashing.Powers
	hashing.PowersOf(key, &pw)
	for _, f := range r.fams {
		lvls := f.route(&pw, r.fkeys[p:], r.cells[c+1:], r.hash)
		r.cells[c] = uint16(lvls)
		p += lvls
		c += 1 + lvls*r.rows
	}
	r.n, r.used = i+1, p
	return true
}

// Apply folds routed update i into strip, the R consecutive grid
// samplers of one vertex (family order), with the update's delta or,
// when negate is set, its inverse.
func (r *L0Routes) Apply(strip []L0Sampler, i int, negate bool) {
	delta := r.deltas[i]
	if negate {
		delta = -delta
	}
	d := field.FromInt64(delta)
	ks := field.Mul(d, field.Reduce(r.keys[i]))
	p := int(r.start[i])
	c := p*r.rows + i*len(strip)
	for k := range strip {
		lvls := int(r.cells[c])
		c++
		strip[k].apply(delta, d, ks, r.fkeys[p:p+lvls], r.cells[c:c+lvls*r.rows])
		p += lvls
		c += lvls * r.rows
	}
}
