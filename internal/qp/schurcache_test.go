package qp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/mat"
)

// TestSchurCacheTrie drives the working-set trie with a seeded stream of
// lookups and stores over more distinct sets than it may hold, and checks
// every lookup against a reference map that is emptied whenever the cache
// must be: the trie must return each stored set's own factor and state,
// tell sets apart by the order of their positions, and hold no entry from
// before its last emptying.
func TestSchurCacheTrie(t *testing.T) {
	const sides = 12
	r := rand.New(rand.NewSource(5))
	c := newSchurCache(sides)
	type entry struct {
		state uint8
		f     *mat.LU
	}
	ref := map[string]entry{}
	resets := 0
	for step := 0; step < 20000; step++ {
		// Ordered sets of 1–4 distinct positions: orders matter, as they do
		// to a Schur factor.
		work := r.Perm(sides)[:1+r.Intn(4)]
		key := fmt.Sprint(work)
		f, state := c.get(work)
		e, ok := ref[key]
		if !ok {
			if state != entryNone {
				t.Fatalf("step %d: %v not stored since the last emptying, but the cache returns state %d", step, work, state)
			}
			e = entry{state: entrySingular}
			if r.Intn(4) > 0 {
				e = entry{entryFactor, &mat.LU{}}
			}
			if len(ref) == schurCap {
				clear(ref)
				resets++
			}
			c.put(work, e.state, e.f)
			ref[key] = e
			continue
		}
		if state != e.state || f != e.f {
			t.Fatalf("step %d: %v reads state %d factor %p, want %d %p", step, work, state, f, e.state, e.f)
		}
	}
	if resets < 5 {
		t.Fatalf("%d resets: the stream does not fill the cache", resets)
	}
	if c.size != len(ref) {
		t.Fatalf("cache holds %d entries, reference %d", c.size, len(ref))
	}
	if live := len(c.nodes) - 1; live > 4*c.size {
		t.Fatalf("%d nodes for %d entries of at most 4 positions", live, c.size)
	}
}
