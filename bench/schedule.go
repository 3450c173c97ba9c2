package main

import (
	"hash/fnv"
	"math/rand"

	"github.com/edsec/edattack/internal/grid"
)

// rngFor derives an independent seeded stream per purpose, so adding draws
// to one stream (say, a longer schedule) never shifts another (the payload
// pools).
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// drawDLR draws one rating map over the network's DLR lines: each line's
// static rating scaled by U[lo, hi], clamped into its plausibility band.
func drawDLR(rng *rand.Rand, net *grid.Network, lo, hi float64) map[int]float64 {
	out := make(map[int]float64)
	for _, li := range net.DLRLines() {
		l := &net.Lines[li]
		v := l.RateMVA * (lo + (hi-lo)*rng.Float64())
		out[li] = min(max(v, l.DLRMin), l.DLRMax)
	}
	return out
}

// staticDLR is the paper's convention for the true ratings when nothing
// else is known: every DLR line at its static rating.
func staticDLR(net *grid.Network) map[int]float64 {
	out := make(map[int]float64)
	for _, li := range net.DLRLines() {
		out[li] = net.Lines[li].RateMVA
	}
	return out
}

// Request kinds, named after the serve endpoints.
const (
	kindEvaluate = "evaluate"
	kindSweep    = "sweep"
	kindAttack   = "attack"
)

// request is one scheduled request: its kind and which payload of that
// kind's seeded pool it carries. For attacks, pool −1 means no true_dlr
// (the topology's static-rating knowledge, whose dispatch memo is warm).
type request struct {
	kind string
	pool int
}

// share is one kind's count in a request block.
type share struct {
	kind  string
	count int
}

// stream deals requests in blocks with exact per-kind counts, each kind
// spread evenly through the block by smooth weighted round-robin, so every
// stretch of the schedule carries the nominal mix and no stretch bunches the
// long jobs: with shuffled blocks, how often sweeps and cold attacks
// happened to coincide moved the mixed workload's latency between seeds by
// more than its bound. A seed changes the payloads, never the order of
// kinds. Attacks alternate between the warm static-rating knowledge and a
// pooled true_dlr (a cold dive).
type stream struct {
	rng     *rand.Rand
	block   []share
	pools   map[string]int
	pending []request
	attacks int
}

func newStream(seed int64, block []share, pools map[string]int) *stream {
	return &stream{rng: rngFor(seed, "schedule"), block: block, pools: pools}
}

func (s *stream) next() request {
	if len(s.pending) == 0 {
		total := 0
		for _, sh := range s.block {
			total += sh.count
		}
		credit := make([]int, len(s.block))
		for n := 0; n < total; n++ {
			pick := 0
			for i, sh := range s.block {
				credit[i] += sh.count
				if credit[i] > credit[pick] {
					pick = i
				}
			}
			credit[pick] -= total
			s.pending = append(s.pending, s.draw(s.block[pick].kind))
		}
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	return r
}

func (s *stream) draw(kind string) request {
	if kind == kindAttack {
		s.attacks++
		if s.attacks%2 == 1 {
			return request{kind: kind, pool: -1}
		}
	}
	return request{kind: kind, pool: s.rng.Intn(s.pools[kind])}
}

// take returns the next n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
