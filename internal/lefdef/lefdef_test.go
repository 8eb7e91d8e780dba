package lefdef

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

func TestLEFRoundTrip(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "rt", Node: "n45", Cells: 120, Nets: 80,
		Utilisation: 0.85, Obstacles: 1, IOFraction: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLEF(&buf, d.Tech, d.Macros); err != nil {
		t.Fatal(err)
	}
	t2, macros, err := ParseLEF(&buf)
	if err != nil {
		t.Fatalf("ParseLEF: %v\n%s", err, buf.String()[:min(2000, buf.Len())])
	}
	if t2.DBU != d.Tech.DBU {
		t.Errorf("DBU %d != %d", t2.DBU, d.Tech.DBU)
	}
	if t2.NumLayers() != d.Tech.NumLayers() {
		t.Fatalf("layers %d != %d", t2.NumLayers(), d.Tech.NumLayers())
	}
	for i, l := range d.Tech.Layers {
		l2 := t2.Layers[i]
		if l2.Name != l.Name || l2.Dir != l.Dir || l2.Pitch != l.Pitch ||
			l2.Width != l.Width || l2.Spacing != l.Spacing || l2.MinArea != l.MinArea ||
			l2.Offset != l.Offset {
			t.Errorf("layer %d mismatch: %+v vs %+v", i, l2, l)
		}
	}
	if len(t2.Vias) != len(d.Tech.Vias) {
		t.Fatalf("vias %d != %d", len(t2.Vias), len(d.Tech.Vias))
	}
	for i, v := range d.Tech.Vias {
		if v2 := t2.Vias[i]; v2.Name != v.Name || v2.Below != v.Below || v2.CutSize != v.CutSize {
			t.Errorf("via %d mismatch: %+v vs %+v", i, v2, v)
		}
	}
	if t2.Site != d.Tech.Site {
		t.Errorf("site mismatch: %+v vs %+v", t2.Site, d.Tech.Site)
	}
	if len(macros) != len(d.Macros) {
		t.Fatalf("macros %d != %d", len(macros), len(d.Macros))
	}
	for i, m := range d.Macros {
		m2 := macros[i]
		if m2.Name != m.Name || m2.Width != m.Width || m2.Height != m.Height {
			t.Errorf("macro %s geometry mismatch", m.Name)
		}
		if len(m2.Pins) != len(m.Pins) {
			t.Fatalf("macro %s pins %d != %d", m.Name, len(m2.Pins), len(m.Pins))
		}
		for j := range m.Pins {
			if m2.Pins[j] != m.Pins[j] {
				t.Errorf("macro %s pin %d: %+v vs %+v", m.Name, j, m2.Pins[j], m.Pins[j])
			}
		}
	}
}

func TestDEFRoundTrip(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "defrt", Node: "n32", Cells: 150, Nets: 100,
		Utilisation: 0.85, Obstacles: 2, IOFraction: 0.2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lef, def bytes.Buffer
	if err := WriteLEF(&lef, d.Tech, d.Macros); err != nil {
		t.Fatal(err)
	}
	if err := WriteDEF(&def, d); err != nil {
		t.Fatal(err)
	}
	t2, macros, err := ParseLEF(&lef)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDEF(&def, t2, macros)
	if err != nil {
		t.Fatalf("ParseDEF: %v", err)
	}
	if d2.Name != d.Name {
		t.Errorf("name %q != %q", d2.Name, d.Name)
	}
	if d2.Die != d.Die {
		t.Errorf("die %v != %v", d2.Die, d.Die)
	}
	if len(d2.Rows) != len(d.Rows) || len(d2.Cells) != len(d.Cells) || len(d2.Nets) != len(d.Nets) {
		t.Fatalf("counts differ: rows %d/%d cells %d/%d nets %d/%d",
			len(d2.Rows), len(d.Rows), len(d2.Cells), len(d.Cells), len(d2.Nets), len(d.Nets))
	}
	for i, r := range d.Rows {
		if r2 := d2.Rows[i]; r2.X != r.X || r2.Y != r.Y || r2.Orient != r.Orient || r2.NumSites != r.NumSites {
			t.Errorf("row %d mismatch: %+v vs %+v", i, r2, r)
		}
	}
	for i, c := range d.Cells {
		c2 := d2.Cells[i]
		if c2.Name != c.Name || c2.Pos != c.Pos || c2.Orient != c.Orient ||
			c2.Fixed != c.Fixed || c2.Macro.Name != c.Macro.Name {
			t.Errorf("cell %d mismatch: %+v vs %+v", i, c2, c)
		}
	}
	for i, n := range d.Nets {
		n2 := d2.Nets[i]
		if n2.Name != n.Name || len(n2.Pins) != len(n.Pins) || len(n2.IOs) != len(n.IOs) {
			t.Fatalf("net %d mismatch", i)
		}
		for j := range n.Pins {
			if n2.Pins[j] != n.Pins[j] {
				t.Errorf("net %s pin %d: %+v vs %+v", n.Name, j, n2.Pins[j], n.Pins[j])
			}
		}
		for j := range n.IOs {
			if n2.IOs[j] != n.IOs[j] {
				t.Errorf("net %s IO %d mismatch", n.Name, j)
			}
		}
	}
	if len(d2.Obs) != len(d.Obs) {
		t.Fatalf("obstacles %d != %d", len(d2.Obs), len(d.Obs))
	}
	for i, o := range d.Obs {
		o2 := d2.Obs[i]
		if o2.Rect != o.Rect {
			t.Errorf("obstacle %d rect mismatch", i)
		}
		if o2.Name != o.Name || !slices.Equal(o2.Layers, o.Layers) {
			t.Errorf("obstacle %d: %s on %v, want %s on %v", i, o2.Name, o2.Layers, o.Name, o.Layers)
		}
	}
	// The parsed design is fully valid.
	if err := d2.Validate(); err != nil {
		t.Fatalf("parsed design invalid: %v", err)
	}
	// HPWL identical: pins resolved to the same geometry.
	if d2.TotalHPWL() != d.TotalHPWL() {
		t.Errorf("HPWL %d != %d after round trip", d2.TotalHPWL(), d.TotalHPWL())
	}
}

func TestWriteGuides(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "guides", Node: "n45", Cells: 80, Nets: 50,
		Utilisation: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	var buf bytes.Buffer
	if err := WriteGuides(&buf, d, g, r.Routes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatal("empty guide file")
	}
	// Every routed net appears with a parenthesised box list.
	nRouted := 0
	for _, rt := range r.Routes {
		if rt != nil {
			nRouted++
		}
	}
	if got := strings.Count(out, "(\n"); got != nRouted {
		t.Errorf("guide blocks = %d, want %d", got, nRouted)
	}
	// Boxes have 4 coordinates + a known layer name.
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 {
			if _, ok := d.Tech.LayerByName(f[4]); !ok {
				t.Fatalf("guide references unknown layer %q", f[4])
			}
		}
	}
}

func TestParseLEFRejectsGarbage(t *testing.T) {
	if _, _, err := ParseLEF(strings.NewReader("THIS IS NOT LEF ;")); err == nil {
		t.Error("garbage LEF accepted")
	}
}

func TestParseDEFRejectsUnknownMacro(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "um", Node: "n45", Cells: 60, Nets: 30, Utilisation: 0.8, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var def bytes.Buffer
	if err := WriteDEF(&def, d); err != nil {
		t.Fatal(err)
	}
	// Parse with an empty macro library.
	if _, err := ParseDEF(&def, d.Tech, nil); err == nil {
		t.Error("DEF with unresolvable macros accepted")
	}
}

// TestTokenizerHandlesCommentsAndParens pins the tokenizer's rules: what
// separates tokens, what a comment covers, and that parentheses stand alone.
func TestTokenizerHandlesCommentsAndParens(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []string
	}{
		{"comment and parens", "A (1 2) # comment\nB ;", []string{"A", "(", "1", "2", ")", "B", ";"}},
		{"CRLF line ends", "A (1 2)\r\nB ;\r\n", []string{"A", "(", "1", "2", ")", "B", ";"}},
		{"vertical tab and form feed", "A\vB\fC", []string{"A", "B", "C"}},
		{"multi-byte spaces", "A\u0085B\u00a0C\u3000D", []string{"A", "B", "C", "D"}},
		{"invalid UTF-8 inside a token", "A\xffB C", []string{"A\xffB", "C"}},
		{"hash glued to a token", "AB#C D\nE", []string{"AB", "E"}},
		{"comment runs past CR to LF", "A # x\rB\nC", []string{"A", "C"}},
		{"comment on a last line without newline", "A ;\n# end", []string{"A", ";"}},
		{"parens glued on both sides", "a(b)c", []string{"a", "(", "b", ")", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tk, err := newTokenizer(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				got, err := tk.next()
				if err != nil || got != w {
					t.Fatalf("token = %q (%v), want %q", got, err, w)
				}
			}
			if !tk.done() {
				t.Errorf("tokens left over: %q", tk.peek())
			}
			if _, err := tk.next(); err != io.ErrUnexpectedEOF {
				t.Errorf("next past the end = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
	t.Run("token index in expect's error", func(t *testing.T) {
		tk, err := newTokenizer(strings.NewReader("A ( B"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.expect("A"); err != nil {
			t.Fatal(err)
		}
		tk.next()
		err = tk.expect("C")
		if want := `lefdef: expected "C", got "B" (token 3)`; err == nil || err.Error() != want {
			t.Errorf("expect error = %v, want %s", err, want)
		}
	})
}

// TestParseDEFRejectsDuplicateNames: two nets, or two IO pins, of one name
// make a DEF whose guides and pin attachments are ambiguous.
func TestParseDEFRejectsDuplicateNames(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "dup", Node: "n45", Cells: 60, Nets: 40,
		Utilisation: 0.8, IOFraction: 0.2, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var def bytes.Buffer
	if err := WriteDEF(&def, d); err != nil {
		t.Fatal(err)
	}
	var plain, ios []string
	for _, n := range d.Nets {
		if len(n.IOs) == 0 {
			plain = append(plain, n.Name)
		}
		for _, p := range n.IOs {
			ios = append(ios, p.Name)
		}
	}
	if len(plain) < 2 || len(ios) < 2 {
		t.Fatalf("fixture has %d plain nets and %d IO pins, need 2 of each", len(plain), len(ios))
	}
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"net", "\n- " + plain[1] + " ", "\n- " + plain[0] + " ", fmt.Sprintf("db: duplicate net %q", plain[0])},
		{"IO pin", "\n- " + ios[1] + " + NET", "\n- " + ios[0] + " + NET", fmt.Sprintf("lefdef: duplicate IO pin %q", ios[0])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := strings.Replace(def.String(), tc.from, tc.to, 1)
			if in == def.String() {
				t.Fatalf("%q not in the fixture's DEF", tc.from)
			}
			_, err := ParseDEF(strings.NewReader(in), d.Tech, d.Macros)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseDEF error = %v, want %s", err, tc.want)
			}
		})
	}
}
