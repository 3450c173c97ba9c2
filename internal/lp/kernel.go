package lp

import (
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/sparse"
)

// The basis factorization kernels under the eta file. Both factor the
// m×m basis B = [columns of the basic variables] and solve with it in
// place, FTRAN (B·x = v) and BTRAN (Bᵀ·y = w); the eta file, the pricing
// and every simplex decision above them are shared. useSparseKernel picks
// one per solve.
//
//   - sparse: Markowitz LU from internal/sparse, its working set and a
//     recycled spare LU drawn from the workspace's FactorScratch.
//   - dense: partial-pivoting LU (mat.FactorInto) of B assembled into
//     engine-owned storage. FTRAN runs the column-oriented solve
//     (mat.LU.SolveSparseInto) and BTRAN the row-oriented transposed one
//     (mat.LU.SolveTInto); both skip the work of zero entries, which the
//     sparse right-hand sides of the simplex mostly are.
//
// Steady-state refactorizations and solves allocate nothing on either.

// denseLU is the dense kernel's storage: the assembled basis matrix, the
// live factorization and a spare the next factorization writes into (so a
// failed one leaves the live factors intact), and a solve buffer.
type denseLU struct {
	buf       []float64
	b         *mat.Matrix // m×m view of buf
	lu, spare *mat.LU
	tmp       []float64
}

// factor factorizes the current basis on the engine's kernel. On error the
// previous factorization stays in place.
func (e *revised) factor() error {
	if e.kern == kernelSparse {
		return e.factorSparse()
	}
	d, m := &e.dlu, e.m
	if d.b == nil || d.b.Rows() != m {
		d.buf = growFloat(d.buf, m*m)
		d.b, _ = mat.Wrap(m, m, d.buf[:m*m])
		d.tmp = growFloat(d.tmp, m)
	}
	a := d.buf[:m*m]
	clear(a)
	for pos, v := range e.basis {
		ind, val := e.colEntries(v)
		for k, i := range ind {
			a[i*m+pos] = val[k]
		}
	}
	lu, err := mat.FactorInto(d.spare, d.b)
	if err != nil {
		return err
	}
	d.lu, d.spare = lu, d.lu
	return nil
}

// factorSparse rebuilds the sparse LU. The column-pointer tables live on
// the engine and the Markowitz working set (plus the retired LU's arrays)
// on the workspace.
func (e *revised) factorSparse() error {
	if cap(e.refInd) < e.m {
		e.refInd = make([][]int, e.m)
		e.refVal = make([][]float64, e.m)
	}
	ind := e.refInd[:e.m]
	val := e.refVal[:e.m]
	for pos, v := range e.basis {
		ind[pos], val[pos] = e.colEntries(v)
	}
	fs := &e.ws.fact
	lu, err := sparse.FactorColumnsWith(e.m, ind, val, fs)
	if err != nil {
		return err
	}
	// Recycle only after success: a failed factorization must leave the
	// current LU untouched.
	if e.lu != nil {
		fs.Recycle(e.lu)
	}
	e.lu = lu
	return nil
}

// luSolve overwrites v (row space) with B⁻¹v (position space).
func (e *revised) luSolve(v []float64) {
	if e.kern == kernelSparse {
		e.lu.Solve(v)
		return
	}
	d := &e.dlu
	copy(d.tmp, v)
	_, _ = d.lu.SolveSparseInto(v, d.tmp) // lengths match by construction
}

// luSolveT overwrites w (position space) with B⁻ᵀw (row space).
func (e *revised) luSolveT(w []float64) {
	if e.kern == kernelSparse {
		e.lu.SolveT(w)
		return
	}
	d := &e.dlu
	copy(d.tmp, w)
	_, _ = d.lu.SolveTInto(w, d.tmp) // lengths match by construction
}
