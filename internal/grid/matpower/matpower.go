// Package matpower reads and writes MATPOWER case files (the `mpc` struct
// format used by the paper's evaluation toolchain and by most of the power
// systems research community). Only the standard matrices are handled —
// bus, gen, branch, gencost — which is what the attack studies need.
package matpower

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/edsec/edattack/internal/grid"
)

// ErrBadFormat is returned for structurally invalid case text.
var ErrBadFormat = errors.New("matpower: malformed case file")

// MATPOWER bus-type codes.
const (
	busPQ    = 1
	busPV    = 2
	busSlack = 3
)

// Parse converts MATPOWER case text to a validated Network.
func Parse(src string) (*grid.Network, error) {
	base, err := scalarField(src, "baseMVA")
	if err != nil {
		return nil, err
	}
	busRows, err := matrixField(src, "bus")
	if err != nil {
		return nil, err
	}
	genRows, err := matrixField(src, "gen")
	if err != nil {
		return nil, err
	}
	branchRows, err := matrixField(src, "branch")
	if err != nil {
		return nil, err
	}
	costRows, _ := matrixField(src, "gencost") // optional

	n := &grid.Network{Name: caseName(src), BaseMVA: base}
	for i, r := range busRows {
		if len(r) < 13 {
			return nil, fmt.Errorf("%w: bus row %d has %d columns, want ≥ 13", ErrBadFormat, i, len(r))
		}
		typ := grid.PQ
		switch int(r[1]) {
		case busPV:
			typ = grid.PV
		case busSlack:
			typ = grid.Slack
		}
		n.Buses = append(n.Buses, grid.Bus{
			ID: int(r[0]), Type: typ,
			Pd: r[2], Qd: r[3],
			VnomKV: r[9], Vmax: r[11], Vmin: r[12], Vset: 1.0,
		})
	}
	for i, r := range genRows {
		if len(r) < 10 {
			return nil, fmt.Errorf("%w: gen row %d has %d columns, want ≥ 10", ErrBadFormat, i, len(r))
		}
		g := grid.Generator{
			ID: i + 1, Bus: int(r[0]),
			Qmax: r[3], Qmin: r[4],
			Pmax: r[8], Pmin: r[9],
		}
		if i < len(costRows) {
			c := costRows[i]
			// Polynomial model: [2 startup shutdown n cN … c0].
			if len(c) >= 4 && int(c[0]) == 2 {
				nc := int(c[3])
				if len(c) >= 4+nc {
					coeffs := c[4 : 4+nc]
					// Highest order first; accept up to quadratic.
					switch nc {
					case 3:
						g.CostA, g.CostB, g.CostC = coeffs[0], coeffs[1], coeffs[2]
					case 2:
						g.CostB, g.CostC = coeffs[0], coeffs[1]
					case 1:
						g.CostC = coeffs[0]
					}
				}
			}
		}
		n.Gens = append(n.Gens, g)
	}
	for i, r := range branchRows {
		if len(r) < 11 {
			return nil, fmt.Errorf("%w: branch row %d has %d columns, want ≥ 11", ErrBadFormat, i, len(r))
		}
		if int(r[10]) == 0 {
			continue // out-of-service branch
		}
		n.Lines = append(n.Lines, grid.Line{
			ID: len(n.Lines) + 1, From: int(r[0]), To: int(r[1]),
			R: r[2], X: r[3], B: r[4], RateMVA: r[5],
		})
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("matpower: parsed network invalid: %w", err)
	}
	return n, nil
}

// Format renders a Network as a MATPOWER case file. A name that is not a
// plain identifier (letters, digits, '_' and '-') is written as "case": the
// header line must not hold text Parse would read as a field, such as
// "mpc.baseMVA = 5".
func Format(n *grid.Network) string {
	var b strings.Builder
	name := n.Name
	if name == "" || strings.IndexFunc(name, notIdentRune) >= 0 {
		name = "case"
	}
	fmt.Fprintf(&b, "function mpc = %s\n", name)
	b.WriteString("mpc.version = '2';\n")
	fmt.Fprintf(&b, "mpc.baseMVA = %g;\n\n", n.BaseMVA)

	b.WriteString("%% bus data\n%\tbus_i\ttype\tPd\tQd\tGs\tBs\tarea\tVm\tVa\tbaseKV\tzone\tVmax\tVmin\n")
	b.WriteString("mpc.bus = [\n")
	for i := range n.Buses {
		bus := &n.Buses[i]
		typ := busPQ
		switch bus.Type {
		case grid.PV:
			typ = busPV
		case grid.Slack:
			typ = busSlack
		}
		fmt.Fprintf(&b, "\t%d\t%d\t%g\t%g\t0\t0\t1\t1\t0\t%g\t1\t%g\t%g;\n",
			bus.ID, typ, bus.Pd, bus.Qd, bus.VnomKV, bus.Vmax, bus.Vmin)
	}
	b.WriteString("];\n\n")

	b.WriteString("%% generator data\n%\tbus\tPg\tQg\tQmax\tQmin\tVg\tmBase\tstatus\tPmax\tPmin\n")
	b.WriteString("mpc.gen = [\n")
	gens := sortedGens(n)
	for _, g := range gens {
		fmt.Fprintf(&b, "\t%d\t0\t0\t%g\t%g\t1\t%g\t1\t%g\t%g;\n",
			g.Bus, g.Qmax, g.Qmin, n.BaseMVA, g.Pmax, g.Pmin)
	}
	b.WriteString("];\n\n")

	b.WriteString("%% branch data\n%\tfbus\ttbus\tr\tx\tb\trateA\trateB\trateC\tratio\tangle\tstatus\tangmin\tangmax\n")
	b.WriteString("mpc.branch = [\n")
	for i := range n.Lines {
		l := &n.Lines[i]
		fmt.Fprintf(&b, "\t%d\t%d\t%g\t%g\t%g\t%g\t0\t0\t0\t0\t1\t-360\t360;\n",
			l.From, l.To, l.R, l.X, l.B, l.RateMVA)
	}
	b.WriteString("];\n\n")

	b.WriteString("%% generator cost data\n%\tmodel\tstartup\tshutdown\tn\tc2\tc1\tc0\n")
	b.WriteString("mpc.gencost = [\n")
	for _, g := range gens {
		fmt.Fprintf(&b, "\t2\t0\t0\t3\t%g\t%g\t%g;\n", g.CostA, g.CostB, g.CostC)
	}
	b.WriteString("];\n")
	return b.String()
}

func notIdentRune(r rune) bool {
	return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-')
}

// sortedGens returns generators in a stable order for deterministic output.
func sortedGens(n *grid.Network) []grid.Generator {
	out := make([]grid.Generator, len(n.Gens))
	copy(out, n.Gens)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// caseName extracts the function name, defaulting to "case".
func caseName(src string) string {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "function") {
			if i := strings.Index(line, "="); i >= 0 {
				return strings.TrimSpace(strings.Trim(line[i+1:], " ;"))
			}
		}
	}
	return "case"
}

// scalarField finds `mpc.<name> = <value>;`.
func scalarField(src, name string) (float64, error) {
	key := "mpc." + name
	idx := strings.Index(src, key)
	if idx < 0 {
		return 0, fmt.Errorf("%w: missing field %q", ErrBadFormat, name)
	}
	rest := src[idx+len(key):]
	eq := strings.Index(rest, "=")
	if eq < 0 {
		return 0, fmt.Errorf("%w: field %q has no assignment", ErrBadFormat, name)
	}
	semi := strings.Index(rest, ";")
	if semi < 0 || semi < eq {
		return 0, fmt.Errorf("%w: field %q not terminated", ErrBadFormat, name)
	}
	val := strings.TrimSpace(rest[eq+1 : semi])
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: field %q value %q", ErrBadFormat, name, val)
	}
	return f, nil
}

// matrixField finds `mpc.<name> = [ rows ];` and parses the numeric rows.
func matrixField(src, name string) ([][]float64, error) {
	key := "mpc." + name
	idx := 0
	for {
		j := strings.Index(src[idx:], key)
		if j < 0 {
			return nil, fmt.Errorf("%w: missing matrix %q", ErrBadFormat, name)
		}
		idx += j
		// Reject prefixes like mpc.gencost when looking for mpc.gen.
		after := src[idx+len(key):]
		trimmed := strings.TrimLeft(after, " \t")
		if strings.HasPrefix(trimmed, "=") {
			break
		}
		idx += len(key)
	}
	open := strings.Index(src[idx:], "[")
	if open < 0 {
		return nil, fmt.Errorf("%w: matrix %q has no opening bracket", ErrBadFormat, name)
	}
	closeIdx := strings.Index(src[idx+open:], "]")
	if closeIdx < 0 {
		return nil, fmt.Errorf("%w: matrix %q not terminated", ErrBadFormat, name)
	}
	body := src[idx+open+1 : idx+open+closeIdx]
	var rows [][]float64
	for _, rawLine := range strings.Split(body, "\n") {
		// Strip comments, then split rows on ';'.
		if c := strings.Index(rawLine, "%"); c >= 0 {
			rawLine = rawLine[:c]
		}
		for _, rawRow := range strings.Split(rawLine, ";") {
			fields := strings.Fields(rawRow)
			if len(fields) == 0 {
				continue
			}
			row := make([]float64, 0, len(fields))
			for _, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: matrix %q token %q", ErrBadFormat, name, f)
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: matrix %q is empty", ErrBadFormat, name)
	}
	return rows, nil
}
