package qp

import "github.com/edsec/edattack/internal/lp"

// qpScratch is the QP layer's slot in an lp.Workspace: the activeSet,
// whose buffers (working set, pricing candidates, Schur right-hand-side
// vectors, KKT-solution memo and its hand-out buffers, step direction,
// candidate working sets) are reused across solves. The cross-solve factorizations (the kktSchur's base LU, border
// columns, and Schur factors) belong to the KKTCache, not the scratch: they
// are shared by every solve of the structural family and must never be
// reset per solve.
type qpScratch struct {
	as activeSet
}

// scratchFrom returns the workspace's QP scratch, creating it on first use.
func scratchFrom(ws *lp.Workspace) *qpScratch {
	if s, ok := ws.QP.(*qpScratch); ok {
		return s
	}
	s := &qpScratch{}
	ws.QP = s
	return s
}

// attach resets the scratch's activeSet for a new solve, keeping its
// buffers.
func (sc *qpScratch) attach(p *Problem, x []float64, opts Options) *activeSet {
	s := &sc.as
	*s = activeSet{p: p, x: x, opts: opts, activeBuffers: s.activeBuffers}
	s.work = s.work[:0]
	return s
}

// release drops the scratch's references to the finished solve's problem,
// options, and KKT cache, keeping only buffers, so a workspace — pooled or
// pinned — never keeps a caller's problem or model alive.
func (sc *qpScratch) release() {
	sc.as = activeSet{activeBuffers: sc.as.activeBuffers}
}

// cloneInto copies src into dst, reallocating only when dst's capacity is
// insufficient; with a nil dst it behaves exactly like mat.CloneVec.
func cloneInto(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// growFloat reslices to length n, reallocating only when
// capacity is insufficient; contents are unspecified (callers write or clear).
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
