package computation

import (
	"fmt"
	"strings"
)

// Cut is a global state of a computation, represented as the number of
// events each process has executed: Cut[i] = k means the first k events of
// process i are in the cut. A cut in this representation is automatically
// down-closed per process; Computation.Consistent checks closure across
// processes (the happened-before condition).
type Cut []int

// NewCut returns the initial cut (no events executed) for n processes.
func NewCut(n int) Cut { return make(Cut, n) }

// Copy returns an independent copy of c.
func (c Cut) Copy() Cut {
	d := make(Cut, len(c))
	copy(d, c)
	return d
}

// Equal reports componentwise equality.
func (c Cut) Equal(d Cut) bool {
	if len(c) != len(d) {
		return false
	}
	for i, x := range c {
		if x != d[i] {
			return false
		}
	}
	return true
}

// LessEq reports whether c ⊆ d, i.e. every event of c is in d.
func (c Cut) LessEq(d Cut) bool {
	if len(c) != len(d) {
		panic(fmt.Sprintf("computation: compare of mismatched cuts (%d vs %d)", len(c), len(d)))
	}
	for i, x := range c {
		if x > d[i] {
			return false
		}
	}
	return true
}

// Size returns the number of events in the cut.
func (c Cut) Size() int {
	total := 0
	for _, x := range c {
		total += x
	}
	return total
}

// Join returns the least upper bound c ⊔ d (set union of the cuts),
// computed componentwise. The join of two consistent cuts is consistent.
func Join(c, d Cut) Cut {
	if len(c) != len(d) {
		panic("computation: join of mismatched cuts")
	}
	j := make(Cut, len(c))
	for i := range c {
		if c[i] >= d[i] {
			j[i] = c[i]
		} else {
			j[i] = d[i]
		}
	}
	return j
}

// Meet returns the greatest lower bound c ⊓ d (set intersection of the
// cuts), computed componentwise. The meet of two consistent cuts is
// consistent.
func Meet(c, d Cut) Cut {
	if len(c) != len(d) {
		panic("computation: meet of mismatched cuts")
	}
	m := make(Cut, len(c))
	for i := range c {
		if c[i] <= d[i] {
			m[i] = c[i]
		} else {
			m[i] = d[i]
		}
	}
	return m
}

// String renders the cut as "<a b c>".
func (c Cut) String() string {
	parts := make([]string, len(c))
	for i, x := range c {
		parts[i] = fmt.Sprint(x)
	}
	return "<" + strings.Join(parts, " ") + ">"
}
