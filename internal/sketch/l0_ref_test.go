package sketch

import (
	"dynstream/internal/field"
	"dynstream/internal/wire"
)

// refSampler is the representation L0Sampler had before the flat lane
// layout, kept as the reference the flat one is diffed against: one
// lazily allocated SketchB per geometric level (nil = zero sketch),
// every operation composed from SketchB's own.
type refSampler struct {
	fam    *L0Family
	levels []*SketchB
}

func newRefSampler(f *L0Family) *refSampler {
	return &refSampler{fam: f, levels: make([]*SketchB, len(f.levels))}
}

func (s *refSampler) level(j int) *SketchB {
	if s.levels[j] == nil {
		s.levels[j] = s.fam.levels[j].instance()
	}
	return s.levels[j]
}

func (s *refSampler) Add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	lv := s.fam.levelHash.Level(key)
	if lv >= len(s.levels) {
		lv = len(s.levels) - 1
	}
	red := field.Reduce(key)
	for j := 0; j <= lv; j++ {
		s.level(j).AddFkey(key, delta, s.fam.levels[j].tab().Pow(red))
	}
}

func (s *refSampler) AddHint(key uint64, delta int64, h *L0Hint) {
	if delta == 0 {
		return
	}
	d := field.FromInt64(delta)
	ks := field.Mul(d, field.Reduce(key))
	rows := s.fam.rows
	for j := 0; j <= h.level; j++ {
		lv := s.level(j)
		field.ScatterAdd3(lv.counts, lv.keySums, lv.fings, delta, ks, field.Mul(d, h.fkeys[j]), h.cells[j*rows:(j+1)*rows])
	}
}

func (s *refSampler) AddBatch(keys []uint64, deltas []int64) {
	var h L0Hint
	for i, key := range keys {
		s.fam.Hint(key, &h)
		s.AddHint(key, deltas[i], &h)
	}
}

func (s *refSampler) Merge(o *refSampler) error {
	if len(s.levels) != len(o.levels) {
		return errIncompatible
	}
	for j := range s.levels {
		if o.levels[j] == nil || o.levels[j].IsZero() {
			continue
		}
		if err := s.level(j).Merge(o.levels[j]); err != nil {
			return err
		}
	}
	return nil
}

func (s *refSampler) SetTo(o *refSampler) {
	s.fam = o.fam
	if len(s.levels) != len(o.levels) {
		s.levels = make([]*SketchB, len(o.levels))
	}
	for j := range o.levels {
		switch {
		case o.levels[j] == nil:
			s.levels[j] = nil
		case s.levels[j] == nil:
			s.levels[j] = o.levels[j].Clone()
		default:
			s.levels[j].SetTo(o.levels[j])
		}
	}
}

func (s *refSampler) IsZero() bool {
	for _, lv := range s.levels {
		if lv != nil && !lv.IsZero() {
			return false
		}
	}
	return true
}

func (s *refSampler) Sample() (key uint64, weight int64, ok bool) {
	for j := len(s.levels) - 1; j >= 0; j-- {
		if s.levels[j] == nil {
			continue
		}
		items, decoded := s.levels[j].Decode()
		if !decoded || len(items) == 0 {
			continue
		}
		var bestH uint64
		first := true
		for k, w := range items {
			if h := s.fam.choiceFn.Hash(k); first || h < bestH || h == bestH && k < key {
				key, weight, bestH, first = k, w, h, false
			}
		}
		return key, weight, true
	}
	return 0, 0, false
}

func (s *refSampler) SpaceWords() int {
	w := 2
	for j, lv := range s.levels {
		if lv == nil {
			w += 3*s.fam.levels[j].cells() + 4
		} else {
			w += lv.SpaceWords()
		}
	}
	return w
}

// l0SamplerV1Tag opens the retired dense v1 sampler layout, which the
// decoder rejects.
const l0SamplerV1Tag uint64 = 0xd15c_0002

// marshal emits the v2 encoding (dense=false) or the retired v1 one:
// u64 lengths and every level dense, a nil level as a zero sketch.
func (s *refSampler) marshal(dense bool) []byte {
	w := &wire.Writer{}
	num := w.Uvarint
	if dense {
		num = w.U64
		w.U64(l0SamplerV1Tag)
	} else {
		w.U64(wire.TagL0Sampler)
	}
	w.U64(s.fam.seed)
	w.U64(s.fam.universe)
	num(uint64(s.fam.perLevel))
	num(uint64(len(s.levels)))
	for j, lv := range s.levels {
		if !dense && (lv == nil || lv.IsZero()) {
			num(0)
			continue
		}
		if lv == nil {
			lv = s.fam.levels[j].instance()
		}
		enc, _ := lv.MarshalBinary() // never fails
		num(uint64(len(enc)))
		w.Raw(enc)
	}
	return w.Bytes()
}
