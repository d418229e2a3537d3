package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
	"dynstream/internal/wire"
)

// denseKeyed is the reference keyed table: every provisioned bucket in
// five flat lanes (counts / keySums / keyFings / edgeSums / edgeFings)
// sliced out of one backing array of 5·rows·cells words, allocated on
// first touch. An update writes its row buckets by index, Merge adds
// lane to lane, and peel sweeps a clone of the full lanes. The seed,
// geometry, row hashes and power tables come from geom, a
// KeyedEdgeSketch of the same parameters whose own bucket list stays
// empty.
type denseKeyed struct {
	geom      *KeyedEdgeSketch
	lanes     []uint64
	counts    []uint64 // two's complement
	keySums   []uint64
	keyFings  []uint64
	edgeSums  []uint64
	edgeFings []uint64
	gen       uint64
}

func newDenseKeyed(seed uint64, n, capacity int) *denseKeyed {
	g := NewKeyedEdgeSketch(seed, n, capacity)
	g.materialize()
	return &denseKeyed{geom: g}
}

func (d *denseKeyed) setLanes(lanes []uint64) {
	nb := d.geom.rows * d.geom.cells
	d.lanes = lanes
	d.counts = lanes[:nb:nb]
	d.keySums = lanes[nb : 2*nb : 2*nb]
	d.keyFings = lanes[2*nb : 3*nb : 3*nb]
	d.edgeSums = lanes[3*nb : 4*nb : 4*nb]
	d.edgeFings = lanes[4*nb : 5*nb : 5*nb]
}

func (d *denseKeyed) touch() {
	if d.lanes == nil {
		d.setLanes(make([]uint64, 5*d.geom.rows*d.geom.cells))
	}
}

func (d *denseKeyed) Touched() bool { return d.lanes != nil }
func (d *denseKeyed) IsZero() bool  { return field.AllZero(d.lanes) }
func (d *denseKeyed) Gen() uint64   { return d.gen }
func (d *denseKeyed) BumpGen()      { d.gen++ }

// addAgg folds upd into the buckets of key, one per row.
func (d *denseKeyed) addAgg(key uint64, upd keyedAgg) {
	g := d.geom
	hs := make([]uint64, g.rows)
	g.bank.HashPrefix(key, hs)
	for r := 0; r < g.rows; r++ {
		i := r*g.cells + int(hs[r]%uint64(g.cells))
		d.counts[i] += uint64(upd.edgeCount)
		d.keySums[i] = field.Add(d.keySums[i], upd.keySum)
		d.keyFings[i] = field.Add(d.keyFings[i], upd.keyFing)
		d.edgeSums[i] = field.Add(d.edgeSums[i], upd.edgeSum)
		d.edgeFings[i] = field.Add(d.edgeFings[i], upd.edgeFing)
	}
}

func (d *denseKeyed) Add(w, v int, delta int64) {
	if delta == 0 {
		return
	}
	d.touch()
	d.gen++
	g := d.geom
	key, e := uint64(v), field.Reduce(g.encode(w, v))
	f := field.FromInt64(delta)
	d.addAgg(key, keyedAgg{
		edgeCount: delta,
		keySum:    field.Mul(f, field.Reduce(key)),
		keyFing:   field.Mul(f, g.keyTab.Pow(key)),
		edgeSum:   field.Mul(f, e),
		edgeFing:  field.Mul(f, g.edgeTab.Pow(e)),
	})
}

func (d *denseKeyed) AddBatch(batch []KeyedEdgeUpdate) {
	for _, u := range batch {
		d.Add(u.W, u.V, u.Delta)
	}
}

func (d *denseKeyed) Merge(o *denseKeyed) {
	switch {
	case o.lanes == nil:
	case d.lanes == nil:
		d.setLanes(slices.Clone(o.lanes))
	default:
		for i, c := range o.counts {
			d.counts[i] += c
		}
		nb := len(d.counts)
		field.AddVec(d.lanes[nb:], d.lanes[nb:], o.lanes[nb:])
	}
	d.gen++
}

func (d *denseKeyed) MarshalBinary() []byte {
	g := d.geom
	w := &wire.Writer{}
	for _, v := range []uint64{wire.TagKeyed, g.seed, uint64(g.n), uint64(g.rows), uint64(g.cells)} {
		w.U64(v)
	}
	for i := 0; i < g.rows*g.cells; i++ {
		if d.lanes == nil {
			w.Raw(make([]byte, keyedBucketBytes))
			continue
		}
		for _, lane := range [][]uint64{d.counts, d.keySums, d.keyFings, d.edgeSums, d.edgeFings} {
			w.U64(lane[i])
		}
	}
	return w.Bytes()
}

// UnmarshalBinary reads an encoding of the same geometry back into the
// lanes; a decoded table is touched, and its generation moves on.
func (d *denseKeyed) UnmarshalBinary(data []byte) {
	d.setLanes(make([]uint64, 5*d.geom.rows*d.geom.cells))
	body := data[5*8:]
	for i := range d.counts {
		for l, lane := range [][]uint64{d.counts, d.keySums, d.keyFings, d.edgeSums, d.edgeFings} {
			lane[i] = binary.LittleEndian.Uint64(body[(5*i+l)*8:])
		}
	}
	d.gen++
}

// peel is the full-lane peeling decode: clone all five lanes and sweep
// every bucket in index order until no bucket is key-pure, giving up
// past one extraction per bucket.
func (d *denseKeyed) peel() map[uint64]keyedAgg {
	if d.IsZero() {
		return nil
	}
	g := d.geom
	wc, wks, wkf := slices.Clone(d.counts), slices.Clone(d.keySums), slices.Clone(d.keyFings)
	wes, wef := slices.Clone(d.edgeSums), slices.Clone(d.edgeFings)
	recovered := map[uint64]keyedAgg{}
	hs := make([]uint64, g.rows)
	budget := len(wc)
	for progress := true; progress; {
		progress = false
		for i := range wc {
			if wc[i] == 0 && wks[i] == 0 && wkf[i] == 0 && wes[i] == 0 && wef[i] == 0 {
				continue
			}
			key, ok := g.pureKey(int64(wc[i]), wks[i], wkf[i])
			if !ok {
				continue
			}
			if budget--; budget < 0 {
				return nil
			}
			agg := keyedAgg{int64(wc[i]), wks[i], wkf[i], wes[i], wef[i]}
			g.bank.HashPrefix(key, hs)
			for r := 0; r < g.rows; r++ {
				j := r*g.cells + int(hs[r]%uint64(g.cells))
				wc[j] -= uint64(agg.edgeCount)
				wks[j] = field.Sub(wks[j], agg.keySum)
				wkf[j] = field.Sub(wkf[j], agg.keyFing)
				wes[j] = field.Sub(wes[j], agg.edgeSum)
				wef[j] = field.Sub(wef[j], agg.edgeFing)
			}
			prev := recovered[key]
			prev.merge(agg)
			if prev.isZero() {
				delete(recovered, key)
			} else {
				recovered[key] = prev
			}
			progress = true
		}
	}
	return recovered
}

// decoded is the full-lane peel's result in Peel's form.
func (d *denseKeyed) decoded() []PeeledKey { return peeled(d.geom, d.peel()) }

// peeled orders a map-based peel's recovery as Peel returns it: keys
// ascending, each with the edge t decodes its aggregate to.
func peeled(t *KeyedEdgeSketch, rec map[uint64]keyedAgg) []PeeledKey {
	out := make([]PeeledKey, 0, len(rec))
	for key, agg := range rec {
		k := PeeledKey{V: int(key), agg: agg}
		k.W, k.OK = t.edge(k.V, agg)
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b PeeledKey) int { return a.V - b.V })
	return out
}

// mapPeel is the peel Peel replaced, kept as its reference: a fresh work
// copy of the list's non-zero buckets swept in index order, and a map
// of recovered aggregates that a repeated key merges into and a key
// whose sum cancels leaves.
func mapPeel(t *KeyedEdgeSketch) map[uint64]keyedAgg {
	work := make(peelWork, 0, len(t.buckets))
	for _, b := range t.buckets {
		if !b.agg.isZero() {
			work = append(work, b)
		}
	}
	if len(work) == 0 {
		return nil
	}
	recovered := make(map[uint64]keyedAgg)
	hs := make([]uint64, t.rows)
	cells := uint64(t.cells)
	budget := t.rows * t.cells
	for progress := true; progress; {
		progress = false
		for p := 0; p < len(work); p++ {
			agg := work[p].agg
			if agg.isZero() {
				continue
			}
			key, ok := t.pureKey(agg.edgeCount, agg.keySum, agg.keyFing)
			if !ok {
				continue
			}
			if budget--; budget < 0 {
				return nil
			}
			t.bank.HashPrefix(key, hs)
			for r := 0; r < t.rows; r++ {
				b := work.at(r*t.cells+int(hs[r]%cells), &p)
				b.edgeCount -= agg.edgeCount
				b.keySum = field.Sub(b.keySum, agg.keySum)
				b.keyFing = field.Sub(b.keyFing, agg.keyFing)
				b.edgeSum = field.Sub(b.edgeSum, agg.edgeSum)
				b.edgeFing = field.Sub(b.edgeFing, agg.edgeFing)
			}
			prev := recovered[key]
			prev.merge(agg)
			if prev.isZero() {
				delete(recovered, key)
			} else {
				recovered[key] = prev
			}
			progress = true
		}
	}
	return recovered
}

// samePeel asserts that got's peel through sc equals want, key for key:
// decoded edge and aggregate.
func samePeel(t *testing.T, name string, got *KeyedEdgeSketch, sc *PeelScratch, want []PeeledKey) {
	t.Helper()
	if keys := got.Peel(sc); !slices.Equal(keys, want) {
		t.Fatalf("%s: peel recovered %d keys %v, reference %d %v", name, len(keys), keys, len(want), want)
	}
}

// sameAsDense asserts every observable of got equals the reference's:
// bytes, generation, IsZero, Touched, the peel key for key, the keys
// and DecodeKey(v) for every vertex v.
func sameAsDense(t *testing.T, name string, got *KeyedEdgeSketch, want *denseKeyed) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, want.MarshalBinary()) {
		t.Fatalf("%s: MarshalBinary differs from the dense reference", name)
	}
	if got.Gen() != want.Gen() || got.IsZero() != want.IsZero() || got.Touched() != want.Touched() {
		t.Fatalf("%s: Gen/IsZero/Touched %d/%v/%v, dense reference %d/%v/%v", name,
			got.Gen(), got.IsZero(), got.Touched(), want.Gen(), want.IsZero(), want.Touched())
	}
	ref := want.decoded()
	samePeel(t, name, got, new(PeelScratch), ref)
	wk := make([]int, len(ref))
	for i, k := range ref {
		wk[i] = k.V
	}
	if gk := got.Keys(); !slices.Equal(gk, wk) {
		t.Fatalf("%s: keys %v, dense reference %v", name, gk, wk)
	}
	for v := 0; v < got.n; v++ {
		gw, gok := got.DecodeKey(v)
		var ww int
		var wok bool
		if i, found := slices.BinarySearchFunc(ref, v, func(k PeeledKey, v int) int { return k.V - v }); found {
			ww, wok = ref[i].W, ref[i].OK
		}
		if gw != ww || gok != wok {
			t.Fatalf("%s: DecodeKey(%d) = (%d,%v), dense reference (%d,%v)", name, v, gw, gok, ww, wok)
		}
	}
}

// keyedTwin is a sparse table and its dense reference, driven through
// the same operations.
type keyedTwin struct {
	s *KeyedEdgeSketch
	d *denseKeyed
}

func newKeyedTwin(seed uint64, n, capacity int) keyedTwin {
	return keyedTwin{NewKeyedEdgeSketch(seed, n, capacity), newDenseKeyed(seed, n, capacity)}
}

// add feeds s to both tables: per element when chunk is 0, otherwise in
// chunks of that size through AddBatch, or through AddBatchWith on sc
// when sc is non-nil.
func (k keyedTwin) add(s []KeyedEdgeUpdate, chunk int, sc *KeyedScratch) {
	k.d.AddBatch(s)
	if chunk == 0 {
		addEach(k.s, s)
		return
	}
	for len(s) > 0 {
		c := s[:min(chunk, len(s))]
		if sc != nil {
			k.s.AddBatchWith(c, sc)
		} else {
			k.s.AddBatch(c)
		}
		s = s[len(c):]
	}
}

func (k keyedTwin) merge(t *testing.T, o keyedTwin) {
	before, _ := o.s.MarshalBinary()
	if err := k.s.Merge(o.s); err != nil {
		t.Fatal(err)
	}
	k.d.Merge(o.d)
	if after, _ := o.s.MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("Merge changed its source")
	}
}

func (k keyedTwin) roundTrip(t *testing.T) {
	enc, err := k.s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.s.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	k.d.UnmarshalBinary(enc)
}

// randomUpdates draws count updates over n vertices with deltas in
// −2…2; about a quarter are followed by their exact reversal.
func randomUpdates(rng *hashing.SplitMix64, n, count int) []KeyedEdgeUpdate {
	var out []KeyedEdgeUpdate
	for len(out) < count {
		u := KeyedEdgeUpdate{W: int(rng.Next() % uint64(n)), V: int(rng.Next() % uint64(n)), Delta: int64(rng.Next()%5) - 2}
		out = append(out, u)
		if rng.Next()%4 == 0 {
			out = append(out, KeyedEdgeUpdate{W: u.W, V: u.V, Delta: -u.Delta})
		}
	}
	return out[:count]
}

func TestKeyedSparseMatchesDense(t *testing.T) {
	const n = 96
	for seed := uint64(1); seed <= 3; seed++ {
		rng := hashing.NewSplitMix64(hashing.Mix(seed, 0x5a))
		capacity := []int{4, 24, 64}[seed-1] // 24 to 384 buckets: overloaded to roomy
		var sc KeyedScratch
		for _, chunk := range []int{0, 1, 7, 113, 16384} {
			for _, with := range []bool{false, true} {
				sc := &sc
				if !with {
					sc = nil
				}
				for combo := 0; combo < 4; combo++ { // receiver, source: untouched or touched
					name := func(step string) string {
						return fmt.Sprintf("seed %d/chunk %d/with %v/combo %d/%s", seed, chunk, with, combo, step)
					}
					recv, src := newKeyedTwin(seed, n, capacity), newKeyedTwin(seed, n, capacity)
					if combo&1 == 1 {
						recv.add(randomUpdates(rng, n, 200), chunk, sc)
					}
					if combo&2 == 2 {
						src.add(randomUpdates(rng, n, 150), chunk, sc)
					}
					sameAsDense(t, name("before-merge"), recv.s, recv.d)
					recv.merge(t, src)
					sameAsDense(t, name("merged"), recv.s, recv.d)
					recv.roundTrip(t)
					sameAsDense(t, name("round-trip"), recv.s, recv.d)
					more := randomUpdates(rng, n, max(chunk, 300))
					recv.add(more, chunk, sc)
					sameAsDense(t, name("more"), recv.s, recv.d)
					recv.add(inverse(more), chunk, sc) // cancels back
					recv.s.BumpGen()
					recv.d.BumpGen()
					sameAsDense(t, name("cancelled"), recv.s, recv.d)
				}
			}
		}
	}
}

// FuzzKeyedOps drives a sparse table and its dense reference — and a
// second pair as merge source — through operations read from the fuzz
// input, comparing every observable after each one.
func FuzzKeyedOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 9, 9, 9, 8, 7, 6, 5, 4, 3, 4, 3, 3, 2})
	f.Add([]byte{5, 1, 2, 4, 3, 5, 3, 4, 2, 0, 9, 3, 2, 3, 0, 9, 3, 1, 3, 6, 3})
	f.Add(bytes.Repeat([]byte{1, 30, 17, 29, 4, 200, 11}, 6))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, capacity = 40, 4 // 24 buckets: collisions and stuck peels
		recv, src := newKeyedTwin(3, n, capacity), newKeyedTwin(3, n, capacity)
		var sc KeyedScratch
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		updates := func(count int) []KeyedEdgeUpdate {
			s := make([]KeyedEdgeUpdate, count)
			for i := range s {
				s[i] = KeyedEdgeUpdate{W: next() % n, V: next() % n, Delta: int64(next()%5) - 2}
			}
			return s
		}
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 7; op {
			case 0:
				recv.add(updates(1), 0, nil)
			case 1:
				recv.add(updates(next()%32), 1+next()%8, nil)
			case 2:
				recv.add(updates(next()%32), 1+next()%8, &sc)
			case 3:
				recv.merge(t, src)
			case 4:
				recv.roundTrip(t)
			case 5:
				src.add(updates(next()%16), 0, nil)
			case 6:
				src = newKeyedTwin(3, n, capacity)
			}
			sameAsDense(t, "fuzz", recv.s, recv.d)
		}
	})
}
