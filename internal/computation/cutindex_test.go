package computation

import (
	"math"
	"math/rand"
	"testing"
)

// refIndex is the string-keyed map CutIndex replaces: the reference its
// ids must match on every insert and lookup. cuts holds copies by id.
type refIndex struct {
	ids  map[string]int
	cuts []Cut
}

func (r *refIndex) insert(c Cut) (int, bool) {
	if id, ok := r.ids[c.String()]; ok {
		return id, false
	}
	r.ids[c.String()] = len(r.cuts)
	r.cuts = append(r.cuts, c.Copy())
	return len(r.cuts) - 1, true
}

// randomCut draws components from a few values per process — both ends,
// their neighbours and one random value — so sequences repeat cuts.
func randomCut(rng *rand.Rand, lens []int) Cut {
	c := make(Cut, len(lens))
	for i, l := range lens {
		switch rng.Intn(5) {
		case 0:
			c[i] = 0
		case 1:
			c[i] = l
		case 2:
			c[i] = min(1, l)
		case 3:
			c[i] = max(l-1, 0)
		default:
			c[i] = rng.Intn(min(l, 7) + 1)
		}
	}
	return c
}

func TestCutIndexMatchesMapReference(t *testing.T) {
	const big = math.MaxInt64 / 4
	cases := []struct {
		name   string
		lens   []int
		packed bool
	}{
		{"n=1", []int{7}, true},
		{"zero-event process", []int{0, 3, 5, 0}, true},
		{"small", []int{2, 3, 4}, true},
		{"n=0", nil, true},
		// (2^32+1)(2^32−1) = 2^64−1: the largest product that fits.
		{"product 2^64-1", []int{1 << 32, 1<<32 - 2}, true},
		// 2^32 · 2^32 = 2^64: one past it.
		{"product 2^64", []int{1<<32 - 1, 1<<32 - 1}, false},
		{"wide", []int{big, big, 3, 0, big}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.lens))))
			x, ref := newCutIndex(tc.lens), &refIndex{ids: map[string]int{}}
			if packed := x.radix != nil; packed != tc.packed {
				t.Fatalf("packed mode = %v, want %v", packed, tc.packed)
			}
			for step := 0; step < 4000; step++ {
				c := randomCut(rng, tc.lens)
				if rng.Intn(3) == 0 {
					id, ok := x.Lookup(c)
					want, wantOK := ref.ids[c.String()]
					if ok != wantOK || (ok && id != want) {
						t.Fatalf("step %d Lookup(%v) = %d, %v; reference %d, %v", step, c, id, ok, want, wantOK)
					}
					continue
				}
				id, added := x.Insert(c)
				want, wantAdded := ref.insert(c)
				if id != want || added != wantAdded {
					t.Fatalf("step %d Insert(%v) = %d, %v; reference %d, %v", step, c, id, added, want, wantAdded)
				}
				for i := range c {
					c[i] = -1 // the index keeps no reference to c
				}
			}
			if x.Len() != len(ref.cuts) {
				t.Fatalf("Len = %d, reference %d", x.Len(), len(ref.cuts))
			}
			for want, c := range ref.cuts {
				if id, ok := x.Lookup(c); !ok || id != want {
					t.Fatalf("final Lookup(%v) = %d, %v; want %d", c, id, ok, want)
				}
			}
		})
	}
}

// TestCutIndexRejectsOutOfRange checks that a component past Len(i) or
// below zero is never ranked: it would alias an in-range cut that is
// present.
func TestCutIndexRejectsOutOfRange(t *testing.T) {
	for _, lens := range [][]int{{2, 3}, {1<<32 - 1, 1<<32 - 1}} {
		x := newCutIndex(lens)
		// In packed mode {Len(0)+1, 0} ranks as {0, 1} and {-1, 1} as
		// {Len(0), 0}; both aliases are inserted.
		x.Insert(Cut{0, 1})
		x.Insert(Cut{lens[0], 0})
		for _, c := range []Cut{{lens[0] + 1, 0}, {-1, 1}, {0, lens[1] + 1}, {0, -1}, {0}, {0, 1, 0}} {
			if id, ok := x.Lookup(c); ok {
				t.Errorf("lens %v: Lookup(%v) = %d, true; want not found", lens, c, id)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lens %v: Insert of an out-of-range cut did not panic", lens)
				}
			}()
			x.Insert(Cut{-1, 1})
		}()
		if x.Len() != 2 {
			t.Errorf("lens %v: Len = %d after rejected cuts, want 2", lens, x.Len())
		}
	}
}

func TestNewCutIndexUsesComputationLengths(t *testing.T) {
	comp := fig2(t)
	x := NewCutIndex(comp)
	if id, added := x.Insert(comp.FinalCut()); id != 0 || !added {
		t.Fatalf("Insert(final) = %d, %v", id, added)
	}
	past := comp.FinalCut()
	past[0]++
	if _, ok := x.Lookup(past); ok {
		t.Fatal("a cut past the final cut was found")
	}
}
