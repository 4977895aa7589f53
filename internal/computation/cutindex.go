package computation

import "math/bits"

// CutIndex maps the cuts of one computation to dense ids 0, 1, 2, … in
// insertion order: the cut identity every memoized cut-space walk shares,
// a flat table probed linearly, so membership allocates nothing.
//
// A cut's key is its mixed-radix rank Σ c[i]·Π_{j<i}(Len(j)+1), exact
// whenever that product fits a uint64. Otherwise the index keeps each
// inserted cut as a row of a flat arena, keys it by a hash of the row and
// compares rows on a key match. A cut of the wrong length or with a
// component outside [0, Len(i)] is never ranked — it would alias an
// in-range cut — so Lookup reports it absent and Insert panics on it.
type CutIndex struct {
	lens  []int
	radix []uint64  // radix[i] = Π_{j<i}(Len(j)+1); nil in row mode
	rows  []int     // row mode: the cut of id k is rows[k*n : (k+1)*n]
	slots []cutSlot // power-of-two sized, at most half full
	shift uint      // 64 − log2(len(slots))
	n     int       // cuts inserted
}

type cutSlot struct {
	key uint64
	id  int32 // id+1; 0 marks an empty slot
}

// NewCutIndex returns an empty index for the cuts of comp.
func NewCutIndex(comp *Computation) *CutIndex {
	lens := make([]int, comp.N())
	for i := range lens {
		lens[i] = comp.Len(i)
	}
	return newCutIndex(lens)
}

func newCutIndex(lens []int) *CutIndex {
	x := &CutIndex{lens: lens, slots: make([]cutSlot, 16), shift: 64 - 4}
	radix, prod := make([]uint64, len(lens)), uint64(1)
	for i, l := range lens {
		radix[i] = prod
		var hi uint64
		if hi, prod = bits.Mul64(prod, uint64(l)+1); hi != 0 {
			return x // the rank overflows: row mode
		}
	}
	x.radix = radix
	return x
}

// Len returns the number of cuts inserted.
func (x *CutIndex) Len() int { return x.n }

// find returns c's slot and whether it holds c (otherwise it is the empty
// slot c belongs in); ok is false when c is not a cut of this shape.
func (x *CutIndex) find(c Cut) (slot int, key uint64, found, ok bool) {
	if len(c) != len(x.lens) {
		return 0, 0, false, false
	}
	if x.radix == nil {
		key = 0xcbf29ce484222325 // FNV-1a over the components
	}
	for i, v := range c {
		if uint(v) > uint(x.lens[i]) {
			return 0, 0, false, false
		}
		if x.radix != nil {
			key += uint64(v) * x.radix[i]
		} else {
			key = (key ^ uint64(v)) * 0x100000001b3
		}
	}
	mask := len(x.slots) - 1
	for s := int((key * 0x9e3779b97f4a7c15) >> x.shift); ; s = (s + 1) & mask {
		sl := x.slots[s]
		if sl.id == 0 {
			return s, key, false, true
		}
		if sl.key == key && (x.radix != nil || Cut(x.rows[int(sl.id-1)*len(c):int(sl.id)*len(c)]).Equal(c)) {
			return s, key, true, true
		}
	}
}

// Lookup returns the id of c, or -1 and false when c was never inserted
// or is not a cut of the computation.
func (x *CutIndex) Lookup(c Cut) (id int, ok bool) {
	s, _, found, _ := x.find(c)
	if !found {
		return -1, false
	}
	return int(x.slots[s].id - 1), true
}

// Insert returns the id of c, assigning the next one when c is new. The
// index keeps no reference to c.
func (x *CutIndex) Insert(c Cut) (id int, added bool) {
	s, key, found, ok := x.find(c)
	switch {
	case !ok:
		panic("computation: CutIndex.Insert of out-of-range cut " + c.String())
	case found:
		return int(x.slots[s].id - 1), false
	}
	x.slots[s] = cutSlot{key: key, id: int32(x.n + 1)}
	if x.radix == nil {
		x.rows = append(x.rows, c...)
	}
	x.n++
	if 2*x.n > len(x.slots) { // double; stored keys rehash without their cuts
		old := x.slots
		x.slots, x.shift = make([]cutSlot, 2*len(old)), x.shift-1
		for _, sl := range old {
			if sl.id == 0 {
				continue
			}
			s := int((sl.key * 0x9e3779b97f4a7c15) >> x.shift)
			for x.slots[s].id != 0 {
				s = (s + 1) & (len(x.slots) - 1)
			}
			x.slots[s] = sl
		}
	}
	return x.n - 1, true
}
