package core

import "repro/internal/computation"

// lexWalk lists a distributive sublattice of comp's cuts in lexical order
// (process 0 first), each once and with no visited set (Garg, "Enumerating
// global states of a distributed computation"). start is its least cut,
// least(i, k) its least cut containing event (i, k), ok false if none: I_p
// and J on a slice, ∅ and the event's clock on the whole lattice. G's
// successor is pre[k] ⊔ least(k, G[k]+1) for the highest k whose next
// event is live with a least cut within G below k, where pre[k] = start ⊔
// least(0, G[0]) ⊔ … ⊔ least(k−1, G[k−1]). Row k of the n×n prefix table
// holds pre[k] from process k on, and a step at k recomputes only the rows
// above k: O(n²) time per cut, O(n²) space. visit must not keep its cut;
// true stops the walk and returns that cut.
func lexWalk(comp *computation.Computation, start computation.Cut, least func(i, k int) (computation.Cut, bool), visit func(computation.Cut) bool) (computation.Cut, bool) {
	n := len(start)
	buf := make([]int, n+n*n)
	g, pre := computation.Cut(buf[:n]), buf[n:]
	copy(g, start)
	copy(pre, start)
	for from := 0; ; {
		for j := from; j < n-1; j++ {
			row, next := pre[j*n:(j+1)*n], pre[(j+1)*n:(j+2)*n]
			copy(next[j+1:], row[j+1:])
			if g[j] == 0 {
				continue
			}
			if l, ok := least(j, g[j]); ok {
				for x := j + 1; x < n; x++ {
					next[x] = max(next[x], l[x])
				}
			}
		}
		if visit(g) {
			return g, true
		}
		k, l := n-1, computation.Cut(nil)
		for ok := false; k >= 0; k-- {
			if g[k] < comp.Len(k) {
				if l, ok = least(k, g[k]+1); ok && l[:k].LessEq(g[:k]) {
					break
				}
			}
		}
		if k < 0 {
			return nil, false
		}
		for x := k; x < n; x++ {
			g[x] = max(pre[k*n+x], l[x])
		}
		from = k
	}
}
