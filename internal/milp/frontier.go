package milp

import "math"

// frontier holds the open nodes of the depth-first search on a stack: the
// most recently pushed node pops first, which keeps the frontier small and
// each node's warm basis one bound fix away from the LP the workspace just
// solved.
type frontier struct {
	maximize bool
	stack    []node
}

func newFrontier(maximize bool) *frontier {
	return &frontier{maximize: maximize}
}

func (f *frontier) len() int { return len(f.stack) }

func (f *frontier) push(n node) { f.stack = append(f.stack, n) }

// pushChildren adds a branch's two children with preferred (the child that
// rounds toward the relaxation point) on top, so it is explored first.
func (f *frontier) pushChildren(preferred, sibling node) {
	f.push(sibling)
	f.push(preferred)
}

// pop removes the next node to explore.
func (f *frontier) pop() (node, bool) {
	if len(f.stack) == 0 {
		return node{}, false
	}
	n := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return n, true
}

// bestBound returns the best inherited relaxation bound among all open
// nodes — the proven bound on everything not yet explored. Returns the
// sense's worst value when the frontier is empty.
func (f *frontier) bestBound() float64 {
	best := math.Inf(-1)
	if !f.maximize {
		best = math.Inf(1)
	}
	for i := range f.stack {
		if s := f.stack[i].score; f.maximize && s > best || !f.maximize && s < best {
			best = s
		}
	}
	return best
}
