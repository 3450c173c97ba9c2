package lp

import "slices"

// varStatus tracks where a variable currently sits.
type varStatus int8

const (
	atLower varStatus = iota + 1
	atUpper
	isFree // nonbasic free variable pinned at value 0
	basic
)

// Basis is a compact snapshot of a simplex basis. For every variable in the
// solver's internal layout — [0,nvars) structural, [nvars,nvars+nslack)
// slacks, then one artificial per row — it records whether the variable is
// basic or, when nonbasic, which bound it rests on.
//
// A Basis obtained from Solution.Basis (with Options.CaptureBasis set) can be
// passed as Options.WarmBasis to a later solve of a problem with the same
// rows and relations; bounds and objective coefficients may differ. That is
// exactly the branch-and-bound situation: a child node changes only variable
// bounds, which leaves the parent's basis dual-feasible, so the warm solve
// can skip phase I and restore primal feasibility with dual pivots.
//
// A Basis is immutable once captured: the solver only reads it, so one Basis
// may be shared by any number of concurrent solves (e.g. both children of a
// branch-and-bound node).
type Basis struct {
	nvars  int
	nrows  int
	nslack int
	status []varStatus
}

// matches reports whether the basis was captured from a problem with the
// given shape.
func (b *Basis) matches(n, m, nslack int) bool {
	return b != nil && b.nvars == n && b.nrows == m && b.nslack == nslack &&
		len(b.status) == n+nslack+m
}

// captureBasis snapshots the final basis of a solved engine.
func captureBasis(e *revised) *Basis {
	return &Basis{nvars: e.n, nrows: e.m, nslack: e.nslack, status: slices.Clone(e.status)}
}

// slackIndex returns, per constraint row, the internal index of its slack
// variable (or -1 for an equality row), given the structural variable count.
func slackIndex(rows []conRow, n int) []int {
	idx := make([]int, len(rows))
	at := n
	for i, r := range rows {
		if r.rel == EQ {
			idx[i] = -1
			continue
		}
		idx[i] = at
		at++
	}
	return idx
}

// Remap translates a basis captured on an old problem onto a new problem
// that extends it, as produced by row generation: varMap[j] gives the new
// index of old structural variable j (or -1 if dropped) and rowMap[i] the
// new index of old constraint row i. Rows of the new problem that are not
// the image of an old row keep their artificial variable basic, which has
// zero cost and therefore cannot break dual feasibility; new structural
// variables start nonbasic on their nearest finite bound. Remap returns nil
// when the maps are inconsistent with either problem (wrong lengths, out of
// range, relation mismatch, or a dropped basic variable leaving the basis
// rank-deficient), in which case the caller should simply cold-solve.
func (b *Basis) Remap(old, new *Problem, varMap, rowMap []int) *Basis {
	if b == nil || old == nil || new == nil {
		return nil
	}
	oldSlackN, newSlackN := old.numSlacks(), new.numSlacks()
	if !b.matches(old.nvars, len(old.rows), oldSlackN) {
		return nil
	}
	if len(varMap) != old.nvars || len(rowMap) != len(old.rows) {
		return nil
	}
	n2, m2 := new.nvars, len(new.rows)
	total2 := n2 + newSlackN + m2
	oldSlack := slackIndex(old.rows, old.nvars)
	newSlack := slackIndex(new.rows, n2)
	artOff := old.nvars + oldSlackN
	artOff2 := n2 + newSlackN

	st := make([]varStatus, total2)
	// Default placement for everything: nearest finite bound for new
	// structural variables, lower bound (zero) for slacks and artificials.
	for j := 0; j < n2; j++ {
		st[j] = defaultPlacement(new.lower[j], new.upper[j])
	}
	for j := n2; j < total2; j++ {
		st[j] = atLower
	}

	rowMapped := make([]bool, m2)
	seenVar := make([]bool, total2)
	assign := func(j2 int, s varStatus) bool {
		if j2 < 0 || j2 >= total2 || seenVar[j2] {
			return false
		}
		seenVar[j2] = true
		st[j2] = s
		return true
	}
	for j := 0; j < old.nvars; j++ {
		j2 := varMap[j]
		if j2 < 0 {
			if b.status[j] == basic {
				return nil // basic variable dropped: basis loses rank
			}
			continue
		}
		if j2 >= n2 || !assign(j2, b.status[j]) {
			return nil
		}
	}
	for i, i2 := range rowMap {
		if i2 < 0 || i2 >= m2 || rowMapped[i2] || old.rows[i].rel != new.rows[i2].rel {
			return nil
		}
		rowMapped[i2] = true
		if s := oldSlack[i]; s >= 0 {
			if !assign(newSlack[i2], b.status[s]) {
				return nil
			}
		}
		if !assign(artOff2+i2, b.status[artOff+i]) {
			return nil
		}
	}
	// Fresh rows keep their artificial basic so the basis stays square.
	for i2 := 0; i2 < m2; i2++ {
		if !rowMapped[i2] {
			st[artOff2+i2] = basic
		}
	}
	nbasic := 0
	for _, s := range st {
		if s == basic {
			nbasic++
		}
	}
	if nbasic != m2 {
		return nil
	}
	return &Basis{nvars: n2, nrows: m2, nslack: newSlackN, status: st}
}

// defaultPlacement mirrors the cold solver's initial nonbasic placement.
func defaultPlacement(lo, hi float64) varStatus {
	switch {
	case !isNegInf(lo):
		return atLower
	case !isPosInf(hi):
		return atUpper
	default:
		return isFree
	}
}
