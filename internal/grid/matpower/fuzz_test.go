package matpower_test

import (
	"strings"
	"testing"

	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/grid/matpower"
)

// FuzzParse ensures arbitrary input never panics the parser, that
// successful parses always yield validated networks, and that Format is a
// fixed point of Parse: text Format wrote parses back into a network Format
// renders to the same text.
func FuzzParse(f *testing.F) {
	f.Add(_case9m)
	f.Add("")
	f.Add("function mpc = x\nmpc.baseMVA = 100;\nmpc.bus = [1 3 0 0 0 0 1 1 0 100 1 1.1 0.9];\nmpc.gen = [1 0 0 1 -1 1 100 1 10 0];\nmpc.branch = [1 1 0 0.1 0 10 0 0 0 0 1];\n")
	f.Add(strings.Replace(_case9m, "0.0576", "NaN", 1))
	for _, build := range []func() (*grid.Network, error){cases.Case9, cases.Case30} {
		n, err := build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(matpower.Format(n))
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := matpower.Parse(src)
		if err != nil {
			return
		}
		// A parse success must be a valid network.
		if err := n.Validate(); err != nil {
			t.Fatalf("Parse returned invalid network: %v", err)
		}
		text := matpower.Format(n)
		back, err := matpower.Parse(text)
		if err != nil {
			t.Fatalf("Parse(Format(n)) failed: %v\n%s", err, text)
		}
		if again := matpower.Format(back); again != text {
			t.Fatalf("Format(Parse(Format(n))) != Format(n):\n%s\nvs\n%s", again, text)
		}
	})
}
