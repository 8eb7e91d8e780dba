package lefdef

import (
	"bytes"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/ispd"
)

// Native fuzz targets: without -fuzz these run their seed corpus as normal
// tests; with `go test -fuzz=FuzzParseLEF ./internal/lefdef` they explore
// mutations. The invariant in both modes is the same: parsers must return
// errors, never panic, on arbitrary input.

func lefSeed(t testing.TB) string {
	d, err := ispd.Generate(ispd.Spec{
		Name: "fuzzseed", Node: "n45", Cells: 60, Nets: 40,
		Utilisation: 0.8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLEF(&buf, d.Tech, d.Macros); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fuzzDEFDesign is a small design with IO pins and a blockage, so its DEF
// has every section the parser reads.
func fuzzDEFDesign(t testing.TB) *db.Design {
	d, err := ispd.Generate(ispd.Spec{
		Name: "fuzzio", Node: "n45", Cells: 60, Nets: 40,
		Utilisation: 0.8, IOFraction: 0.2, Obstacles: 2, Seed: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defSeed(t testing.TB) string {
	var buf bytes.Buffer
	if err := WriteDEF(&buf, fuzzDEFDesign(t)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func FuzzParseLEF(f *testing.F) {
	f.Add(lefSeed(f))
	f.Add("")
	f.Add("LAYER m1\nEND m1\n")
	f.Add("MACRO A\nSIZE 1 BY\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Must not panic; errors are fine.
		ParseLEF(strings.NewReader(input))
	})
}

func FuzzParseDEF(f *testing.F) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "fuzzdef", Node: "n45", Cells: 60, Nets: 40,
		Utilisation: 0.8, Seed: 78,
	})
	if err != nil {
		f.Fatal(err)
	}
	var def bytes.Buffer
	if err := WriteDEF(&def, d); err != nil {
		f.Fatal(err)
	}
	f.Add(def.String())
	f.Add("")
	f.Add("DESIGN x ;\nDIEAREA ( 0 0 ) ( 10 10 ) ;\n")
	f.Fuzz(func(t *testing.T, input string) {
		ParseDEF(strings.NewReader(input), d.Tech, d.Macros)
	})
}

// FuzzDEFRoundTrip is the torn-file fuzz target behind the robustness work:
// any input that ParseDEF accepts must survive a full write → re-parse
// round trip with the design intact (same cells at the same positions, same
// nets), and any input it rejects must fail with an error, never a panic.
func FuzzDEFRoundTrip(f *testing.F) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "fuzzrt", Node: "n45", Cells: 60, Nets: 40,
		Utilisation: 0.8, Seed: 79,
	})
	if err != nil {
		f.Fatal(err)
	}
	var def bytes.Buffer
	if err := WriteDEF(&def, d); err != nil {
		f.Fatal(err)
	}
	whole := def.String()
	f.Add(whole)
	// Torn-file seeds: prefixes of a valid DEF at several cut points.
	for _, frac := range []int{10, 50, 90} {
		f.Add(whole[:len(whole)*frac/100])
	}
	f.Add("")
	f.Add("DESIGN x ;\nEND DESIGN\n")
	f.Fuzz(func(t *testing.T, input string) {
		p1, err := ParseDEF(strings.NewReader(input), d.Tech, d.Macros)
		if err != nil {
			return // rejected without panicking: fine
		}
		var out bytes.Buffer
		if err := WriteDEF(&out, p1); err != nil {
			t.Fatalf("accepted design failed to write: %v", err)
		}
		p2, err := ParseDEF(strings.NewReader(out.String()), d.Tech, d.Macros)
		if err != nil {
			t.Fatalf("written DEF failed to re-parse: %v\n%s", err, out.String())
		}
		if len(p2.Cells) != len(p1.Cells) || len(p2.Nets) != len(p1.Nets) {
			t.Fatalf("round trip changed shape: %d/%d cells, %d/%d nets",
				len(p1.Cells), len(p2.Cells), len(p1.Nets), len(p2.Nets))
		}
		for i := range p1.Cells {
			a, b := p1.Cells[i], p2.Cells[i]
			if a.Name != b.Name || a.Pos != b.Pos || a.Orient != b.Orient {
				t.Fatalf("cell %d changed: %v@%v -> %v@%v", i, a.Name, a.Pos, b.Name, b.Pos)
			}
		}
	})
}
