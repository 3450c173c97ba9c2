package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
)

var updateKKT = flag.Bool("update", false, "rewrite the KKT relaxations in internal/lp/testdata/kkt")

// kktDir holds the real KKT relaxations internal/lp checks both basis
// kernels against its tableau oracle on (TestRealKKTAgainstOracle).
const kktDir = "../lp/testdata/kkt"

// TestKKTTestdataCurrent keeps internal/lp/testdata/kkt equal to the root
// LP relaxations the attack builds today at static ratings: for case9,
// case30 and case57 the first two DLR targets under complementarity and
// big-M, for case118 the first target under complementarity (its files
// are ~60 kB each), each in both directions. Each file holds the LP and the
// variables branch and bound branches on (complementarity pairs or big-M
// binaries), so the oracle test can walk a few branches warm. After a
// change to the reformulation, regenerate them with
// go test ./internal/core -run TestKKTTestdataCurrent -update.
func TestKKTTestdataCurrent(t *testing.T) {
	for _, c := range []struct {
		name    string
		build   func() (*grid.Network, error)
		targets int
	}{
		{"case9", cases.Case9, 2}, {"case30", cases.Case30, 2},
		{"case57", cases.Case57, 2}, {"case118", cases.Case118, 1},
	} {
		k := kktKnowledge(t, c.build)
		methods := []Method{MethodComplementarity, MethodBigM}
		if c.name == "case118" {
			// Its big-M root relaxation fails on every engine (an unstable
			// pivot on the revised simplex, the iteration limit on the
			// tableau), so there is no verdict to compare.
			methods = methods[:1]
		}
		for _, method := range methods {
			o := Options{Method: method}.withDefaults()
			pre := precompute(k, o)
			targets := k.Model.Net.DLRLines()
			if len(targets) > c.targets {
				targets = targets[:c.targets]
			}
			for _, target := range targets {
				for _, dir := range []float64{1, -1} {
					s := newSubproblem(k, target, dir, pre.monitored, o, pre)
					mp, err := s.build()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s-%s-line%d-%s.lp", c.name, methodTag(method), target, dirTag(dir))
					checkKKTFile(t, name, writeKKT(s, mp.Base, fmt.Sprintf("%s, %v, target line %d, direction %+d", c.name, method, target, int(dir))))
				}
			}
		}
	}
}

func methodTag(m Method) string {
	if m == MethodBigM {
		return "bigm"
	}
	return "compl"
}

func dirTag(dir float64) string {
	if dir > 0 {
		return "up"
	}
	return "down"
}

// checkKKTFile rewrites name under -update and otherwise requires it to
// hold exactly want.
func checkKKTFile(t *testing.T, name string, want []byte) {
	t.Helper()
	path := filepath.Join(kktDir, name)
	if *updateKKT {
		if err := os.MkdirAll(kktDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the relaxation the attack builds (regenerate with -update)", path)
	}
}

// writeKKT renders p, the root relaxation of s, in the line format
// TestRealKKTAgainstOracle reads:
//
//	vars N rows M max|min
//	c j value            nonzero objective coefficients
//	b j lo hi            bounds other than (-Inf, +Inf)
//	r rel rhs j:v ...    one constraint row, nonzero entries
//	pair a b             a complementarity pair (a·b = 0)
//	bin j                a binary variable
//
// Numbers print in the shortest form that parses back to the same float64.
func writeKKT(s *subproblem, p *lp.Problem, title string) []byte {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	sense := "min"
	if p.IsMaximize() {
		sense = "max"
	}
	fmt.Fprintf(&b, "# %s: root LP relaxation of the single-level reformulation\n", title)
	fmt.Fprintf(&b, "vars %d rows %d %s\n", p.NumVars(), p.NumConstraints(), sense)
	for j := 0; j < p.NumVars(); j++ {
		if c := p.ObjectiveCoeff(j); c != 0 {
			fmt.Fprintf(&b, "c %d %s\n", j, f(c))
		}
	}
	for j := 0; j < p.NumVars(); j++ {
		if lo, hi := p.Bounds(j); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
			fmt.Fprintf(&b, "b %d %s %s\n", j, f(lo), f(hi))
		}
	}
	for i := 0; i < p.NumConstraints(); i++ {
		row := p.ConstraintAt(i)
		fmt.Fprintf(&b, "r %v %s", row.Rel, f(row.RHS))
		for j, v := range row.Coeffs {
			if v != 0 {
				fmt.Fprintf(&b, " %d:%s", j, f(v))
			}
		}
		b.WriteByte('\n')
	}
	for j := 0; j < s.ni; j++ {
		if s.method == MethodBigM {
			fmt.Fprintf(&b, "bin %d\n", s.muOff+j)
		} else {
			fmt.Fprintf(&b, "pair %d %d\n", s.lamOff+j, s.sOff+j)
		}
	}
	return b.Bytes()
}
