package qp

import "github.com/edsec/edattack/internal/mat"

// schurCap bounds the working sets a schurCache holds an entry for.
const schurCap = 1024

// Entry states of a schurNode.
const (
	entryNone     uint8 = iota // no entry: a path node only
	entryFactor                // f is the set's Schur factorization
	entrySingular              // the set's Schur complement is singular
)

// schurCache remembers, per working set, the factorization of its Schur
// complement or that the complement is singular. It is a trie over the
// sets' ordered side positions: the set (w₁, …, w_k) is the node reached
// from the root along the edges w₁, …, w_k, so a lookup walks the set's
// positions and needs no packed key. Order matters, as it does for the
// factor: the same rows in another order are another set.
//
// At most schurCap sets hold an entry: storing one more first empties the
// cache, keeping the node storage. Emptying only costs later
// refactorizations: an entry is a pure function of the set and the fixed
// Schur dots, so results never depend on what the cache holds.
//
// Node index 0 means none; nodes[0] is never used.
type schurCache struct {
	first []int32     // side position → node of the one-row set starting there
	nodes []schurNode // trie nodes; nodes[0] is the none sentinel
	size  int         // nodes holding an entry
}

// schurNode is one trie node: the working set spelled by the path from the
// root to it.
type schurNode struct {
	pos     int32 // the set's last side position: the edge into this node
	child   int32 // first child
	sibling int32 // next child of the same parent
	state   uint8
	f       *mat.LU // the factorization, while state is entryFactor
}

// newSchurCache returns an empty cache for a problem with sides side
// positions.
func newSchurCache(sides int) schurCache {
	return schurCache{first: make([]int32, sides), nodes: make([]schurNode, 1)}
}

// childAt returns n's child along edge pos, or 0. A child it finds moves
// to the front of n's children, so the sets in use are found first.
func (c *schurCache) childAt(n, pos int32) int32 {
	prev := int32(0)
	for ch := c.nodes[n].child; ch != 0; prev, ch = ch, c.nodes[ch].sibling {
		if c.nodes[ch].pos == pos {
			if prev != 0 {
				c.nodes[prev].sibling = c.nodes[ch].sibling
				c.nodes[ch].sibling = c.nodes[n].child
				c.nodes[n].child = ch
			}
			return ch
		}
	}
	return 0
}

// get returns work's entry: its state and, for entryFactor, the
// factorization. A set without an entry reads entryNone. work must be
// non-empty.
func (c *schurCache) get(work []int) (*mat.LU, uint8) {
	n := c.first[work[0]]
	for _, w := range work[1:] {
		if n == 0 {
			break
		}
		n = c.childAt(n, int32(w))
	}
	if n == 0 {
		return nil, entryNone
	}
	return c.nodes[n].f, c.nodes[n].state
}

// put stores work's entry, which it must not hold yet: the factorization f
// (state entryFactor) or singularity (entrySingular, f nil). When the cache
// is full it is first emptied.
func (c *schurCache) put(work []int, state uint8, f *mat.LU) {
	if c.size >= schurCap {
		clear(c.first)
		clear(c.nodes) // drop the factors
		c.nodes = c.nodes[:1]
		c.size = 0
	}
	n := c.first[work[0]]
	if n == 0 {
		n = c.newNode(int32(work[0]))
		c.first[work[0]] = n
	}
	for _, w := range work[1:] {
		ch := c.childAt(n, int32(w))
		if ch == 0 {
			ch = c.newNode(int32(w))
			c.nodes[ch].sibling = c.nodes[n].child
			c.nodes[n].child = ch
		}
		n = ch
	}
	c.nodes[n].state, c.nodes[n].f = state, f
	c.size++
}

// newNode appends a fresh node for edge pos. It does not link the node
// into the trie.
func (c *schurCache) newNode(pos int32) int32 {
	c.nodes = append(c.nodes, schurNode{pos: pos})
	return int32(len(c.nodes) - 1)
}
