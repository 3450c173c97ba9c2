package lp

import (
	"slices"
	"sync"

	"github.com/edsec/edattack/internal/sparse"
)

// Workspace is the single owner of solver working storage and of the state
// retained between solves: the revised-simplex engine (dense vectors, eta
// file, pivot-row and pricing arrays, the compressed-column matrix, the
// dense basis LU), the Markowitz factorization working set
// (internal/sparse.FactorScratch, including a recycled spare LU),
// matrix-build temporaries, warm-basis scratch, and the solution vectors.
// The QP layer parks its Schur scratch in QP (typed in internal/qp; `any`
// here avoids the import cycle).
//
// Every solve runs on a workspace. A caller that passes none in
// Options.Workspace borrows one from the package pool (GetWorkspace) for
// the call and gets fresh copies of the solution vectors; milp borrows one
// for a whole branch-and-bound run. Long-lived owners — core's per-task
// checkouts, edserve's per-topology models — hold one across many solves.
//
// Ownership rules: a Workspace belongs to exactly one goroutine at a time
// and is never shared concurrently, so no field needs synchronization. A
// Solution returned from a solve on a caller's workspace aliases the
// workspace's buffers and is valid only until the next solve on it;
// callers that retain vectors (incumbents, heuristic points, captured
// bases) must copy, which every current caller does.
//
// A workspace only moves where arrays live: every solve rebuilds its
// engine from the problem unless the retained engine is certified for that
// problem (see engProb), so results are bit-for-bit independent of which
// workspace ran a solve and of what it ran before.
type Workspace struct {
	// eng is the engine retained by the last solve. engProb is non-nil
	// only when that solve ran with CaptureBasis, and marks the engine's
	// matrix, LU, and eta file as still describing that problem — checked
	// against Problem.rev at reuse time, since rows added later invalidate
	// it while bound and objective edits do not. An uncertified retention
	// reuses allocations only: the next solve rebuilds from the problem and
	// starts cold.
	eng     *revised
	engProb *Problem

	fact sparse.FactorScratch

	// buildRMatrixInto temporaries.
	bx0   []float64
	bcnt  []int
	bnext []int

	// Warm-start scratch, including the Farkas certificate row y and its
	// image g = yᵀ[A | S] (see farkasCertified).
	wanted  []int
	farkasY []float64
	farkasG []float64

	// Workspace-owned solution storage (see type comment for lifetime).
	sol     Solution
	solX    []float64
	solDual []float64
	solRC   []float64

	// QP is the qp package's Schur/active-set scratch slot.
	QP any
}

// NewWorkspace returns an empty workspace; all storage grows on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// pool holds idle workspaces for solves whose caller supplies none.
var pool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace checks a workspace out of the package pool. It carries no
// certified state, only allocations; return it with PutWorkspace.
func GetWorkspace() *Workspace { return pool.Get().(*Workspace) }

// PutWorkspace resets ws and returns it to the package pool. The caller
// must not use ws, or any Solution vector aliasing it, afterwards.
func PutWorkspace(ws *Workspace) {
	ws.Reset()
	pool.Put(ws)
}

// Reset drops the retained engine's association with its problem, so the
// next solve rebuilds from the problem's current state (allocations are
// kept), and drops its references to the last solve's objective and
// options, so an idle workspace keeps no caller data alive. Call it when a
// capture-enabled solve sequence ends, or when the retained state can no
// longer be trusted, e.g. after a panic unwound through a solve. A nil
// workspace is a no-op.
func (ws *Workspace) Reset() {
	if ws == nil {
		return
	}
	ws.engProb = nil
	if e := ws.eng; e != nil {
		e.opts, e.userC = Options{}, nil
	}
}

// engine takes the retained engine for reuse, or a new one bound to
// this workspace when there is none. The caller checks certification first.
func (ws *Workspace) engine() *revised {
	e := ws.eng
	ws.eng, ws.engProb = nil, nil
	if e == nil {
		e = &revised{ws: ws}
	}
	return e
}

// retain stores a finished engine. certified marks the engine's
// matrix, LU, and eta file as valid for p's current rev; only CaptureBasis
// solves earn it.
func (ws *Workspace) retain(p *Problem, e *revised, certified bool) {
	ws.eng, ws.engProb = e, nil
	if certified {
		ws.engProb = p
		e.cacheRev = p.rev
	}
}

// solution hands out the workspace-owned Solution for an optimum with n
// structural variables and m rows; the engine fills X, Dual, and
// ReducedCost.
func (ws *Workspace) solution(n, m int) *Solution {
	ws.solX = growFloat(ws.solX, n)
	ws.solDual = growFloat(ws.solDual, m)
	ws.solRC = growFloat(ws.solRC, n)
	ws.sol = Solution{Status: Optimal, X: ws.solX, Dual: ws.solDual, ReducedCost: ws.solRC}
	return &ws.sol
}

// farkasRay sizes the Farkas scratch for p — the certificate row y, one
// entry per row, and g, one per structural and slack column — and returns y
// for the engine to fill.
func (ws *Workspace) farkasRay(p *Problem) []float64 {
	ws.farkasY = growFloat(ws.farkasY, len(p.rows))
	ws.farkasG = growFloat(ws.farkasG, p.nvars+p.numSlacks())
	return ws.farkasY
}

// detach returns a copy of sol whose vectors no longer alias any workspace,
// for solves that ran on a borrowed one.
func (sol *Solution) detach() *Solution {
	if sol == nil {
		return nil
	}
	out := *sol
	out.X = slices.Clone(sol.X)
	out.Dual = slices.Clone(sol.Dual)
	out.ReducedCost = slices.Clone(sol.ReducedCost)
	return &out
}

// growFloat/growInt/growBool reslice s to length n, reallocating only when
// capacity is insufficient. Contents are unspecified; callers write before
// reading (or clear explicitly).
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
