package lefdef

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/tech"
)

// FuzzTokenizer holds the in-place tokenizer to the line-scanning oracle:
// on every input the oracle accepts, the same tokens in the same order,
// and done exactly after the last one.
func FuzzTokenizer(f *testing.F) {
	f.Add(lefSeed(f))
	f.Add(defSeed(f))
	f.Add("A (1 2)\r\nB ;\r\n")
	f.Add("A\u0085B\u00a0C\u3000D")
	f.Add("A\xffB \xc2(\xe2\x80 \xe2\x80\x85x")
	f.Add("AB#C D\nE")
	f.Add("A ;\n# last line, no newline")
	f.Fuzz(func(t *testing.T, input string) {
		want, err := oracleTokens(strings.NewReader(input))
		if err != nil {
			return
		}
		tk, err := newTokenizer(strings.NewReader(input))
		if err != nil {
			t.Fatalf("oracle accepts the input, tokenizer fails: %v", err)
		}
		for i, w := range want {
			if tk.done() {
				t.Fatalf("done after %d tokens, oracle has %d", i, len(want))
			}
			if got := tk.peek(); got != w {
				t.Fatalf("token %d: peek %q, oracle %q", i, got, w)
			}
			if got, err := tk.next(); err != nil || got != w {
				t.Fatalf("token %d: next %q (%v), oracle %q", i, got, err, w)
			}
		}
		if !tk.done() {
			t.Fatalf("token %q left after the oracle's %d", tk.peek(), len(want))
		}
		if tk.pos != len(want) {
			t.Fatalf("pos %d after %d tokens", tk.pos, len(want))
		}
		if _, err := tk.next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("next past the end: %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// TestWritersMatchOracle writes the benchgen suite at scale 0.004, and
// crp_test7 at 0.01, through the writers and their fmt oracles; the bytes
// must be equal. The guides are those of a full global route.
func TestWritersMatchOracle(t *testing.T) {
	specs := append(ispd.Suite(0.004), ispd.Suite(0.01)[6])
	for _, spec := range specs {
		d, err := ispd.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := grid.New(d, grid.DefaultParams())
		r := global.New(d, g, global.DefaultConfig())
		r.RouteAll()
		for _, w := range []struct {
			name          string
			write, oracle func(io.Writer) error
		}{
			{"lef",
				func(w io.Writer) error { return WriteLEF(w, d.Tech, d.Macros) },
				func(w io.Writer) error { return oracleWriteLEF(w, d.Tech, d.Macros) }},
			{"def",
				func(w io.Writer) error { return WriteDEF(w, d) },
				func(w io.Writer) error { return oracleWriteDEF(w, d) }},
			{"guide",
				func(w io.Writer) error { return WriteGuides(w, d, g, r.Routes) },
				func(w io.Writer) error { return oracleWriteGuides(w, d, g, r.Routes) }},
		} {
			var got, want bytes.Buffer
			if err := w.write(&got); err != nil {
				t.Fatal(err)
			}
			if err := w.oracle(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s@%d cells: %s differs from the oracle's at byte %d (%d vs %d bytes)",
					spec.Name, len(d.Cells), w.name, firstDiff(got.Bytes(), want.Bytes()), got.Len(), want.Len())
			}
		}
	}
}

// FuzzWriteDEFMatchesOracle: every DEF that ParseDEF accepts is written to
// the oracle's bytes.
func FuzzWriteDEFMatchesOracle(f *testing.F) {
	d := fuzzDEFDesign(f)
	var def bytes.Buffer
	if err := WriteDEF(&def, d); err != nil {
		f.Fatal(err)
	}
	f.Add(def.String())
	f.Add("DESIGN x ;\nDIEAREA ( 0 0 ) ( 10 10 ) ;\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParseDEF(strings.NewReader(input), d.Tech, d.Macros)
		if err != nil {
			return
		}
		var got, want bytes.Buffer
		if err := WriteDEF(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteDEF(&want, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteDEF differs from the oracle at byte %d", firstDiff(got.Bytes(), want.Bytes()))
		}
	})
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// The oracles: the line-scanning tokenizer and the fmt-based writers the
// package shipped before the in-place tokenizer and the append writers,
// kept unchanged (only renamed) so the differential tests and fuzz targets
// can hold the production code to the same tokens and the same bytes.

// oracleTokens is the former newTokenizer: it returns every token of r.
func oracleTokens(r io.Reader) ([]string, error) {
	var toks []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.ReplaceAll(line, "(", " ( ")
		line = strings.ReplaceAll(line, ")", " ) ")
		toks = append(toks, strings.Fields(line)...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return toks, nil
}

// oracleWriteLEF is the former WriteLEF.
func oracleWriteLEF(w io.Writer, t *tech.Tech, macros []*db.Macro) error {
	ew := &oracleErrWriter{w: w}
	dbu := float64(t.DBU)
	um := func(v int) float64 { return float64(v) / dbu }

	ew.printf("VERSION 5.8 ;\n")
	ew.printf("BUSBITCHARS \"[]\" ;\n")
	ew.printf("DIVIDERCHAR \"/\" ;\n")
	ew.printf("UNITS\n  DATABASE MICRONS %d ;\nEND UNITS\n\n", t.DBU)

	for _, l := range t.Layers {
		dir := "HORIZONTAL"
		if l.Dir == tech.Vertical {
			dir = "VERTICAL"
		}
		ew.printf("LAYER %s\n", l.Name)
		ew.printf("  TYPE ROUTING ;\n")
		ew.printf("  DIRECTION %s ;\n", dir)
		ew.printf("  PITCH %.4f ;\n", um(l.Pitch))
		ew.printf("  WIDTH %.4f ;\n", um(l.Width))
		ew.printf("  SPACING %.4f ;\n", um(l.Spacing))
		ew.printf("  AREA %.6f ;\n", float64(l.MinArea)/(dbu*dbu))
		ew.printf("  OFFSET %.4f ;\n", um(l.Offset))
		ew.printf("END %s\n\n", l.Name)
	}
	for _, v := range t.Vias {
		ew.printf("VIA %s DEFAULT\n", v.Name)
		ew.printf("  LAYERBELOW %s ;\n", t.Layers[v.Below].Name)
		ew.printf("  CUTSIZE %.4f ;\n", um(v.CutSize))
		ew.printf("END %s\n\n", v.Name)
	}
	ew.printf("SITE %s\n  CLASS CORE ;\n  SIZE %.4f BY %.4f ;\nEND %s\n\n",
		t.Site.Name, um(t.Site.Width), um(t.Site.Height), t.Site.Name)

	for _, m := range macros {
		ew.printf("MACRO %s\n", m.Name)
		ew.printf("  CLASS CORE ;\n")
		ew.printf("  SIZE %.4f BY %.4f ;\n", um(m.Width), um(m.Height))
		ew.printf("  SITE %s ;\n", t.Site.Name)
		for _, p := range m.Pins {
			ew.printf("  PIN %s\n", p.Name)
			ew.printf("    PORT\n")
			ew.printf("      LAYER %s ;\n", t.Layers[p.Layer].Name)
			ew.printf("      POINT %.4f %.4f ;\n", um(p.Offset.X), um(p.Offset.Y))
			ew.printf("    END\n")
			ew.printf("  END %s\n", p.Name)
		}
		ew.printf("END %s\n\n", m.Name)
	}
	ew.printf("END LIBRARY\n")
	return ew.err
}

// oracleWriteDEF is the former WriteDEF.
func oracleWriteDEF(w io.Writer, d *db.Design) error {
	ew := &oracleErrWriter{w: w}
	t := d.Tech

	ew.printf("VERSION 5.8 ;\n")
	ew.printf("DESIGN %s ;\n", d.Name)
	ew.printf("UNITS DISTANCE MICRONS %d ;\n\n", t.DBU)
	ew.printf("DIEAREA ( %d %d ) ( %d %d ) ;\n\n", d.Die.Lo.X, d.Die.Lo.Y, d.Die.Hi.X, d.Die.Hi.Y)

	for _, r := range d.Rows {
		ew.printf("ROW row_%d %s %d %d %s DO %d BY 1 STEP %d 0 ;\n",
			r.Index, t.Site.Name, r.X, r.Y, r.Orient, r.NumSites, t.Site.Width)
	}
	ew.printf("\nCOMPONENTS %d ;\n", len(d.Cells))
	for _, c := range d.Cells {
		status := "PLACED"
		if c.Fixed {
			status = "FIXED"
		}
		ew.printf("- %s %s + %s ( %d %d ) %s ;\n", c.Name, c.Macro.Name, status, c.Pos.X, c.Pos.Y, c.Orient)
	}
	ew.printf("END COMPONENTS\n\n")

	nIOs := 0
	for _, n := range d.Nets {
		nIOs += len(n.IOs)
	}
	ew.printf("PINS %d ;\n", nIOs)
	for _, n := range d.Nets {
		for _, io := range n.IOs {
			ew.printf("- %s + NET %s + LAYER %s + PLACED ( %d %d ) ;\n",
				io.Name, n.Name, t.Layers[io.Layer].Name, io.Pos.X, io.Pos.Y)
		}
	}
	ew.printf("END PINS\n\n")

	ew.printf("BLOCKAGES %d ;\n", len(d.Obs))
	for _, o := range d.Obs {
		ew.printf("- %s LAYERS", o.Name)
		for _, l := range o.Layers {
			ew.printf(" %s", t.Layers[l].Name)
		}
		ew.printf(" RECT ( %d %d ) ( %d %d ) ;\n", o.Rect.Lo.X, o.Rect.Lo.Y, o.Rect.Hi.X, o.Rect.Hi.Y)
	}
	ew.printf("END BLOCKAGES\n\n")

	ew.printf("NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		ew.printf("- %s", n.Name)
		for _, pr := range n.Pins {
			c := d.Cells[pr.Cell]
			ew.printf(" ( %s %s )", c.Name, c.Macro.Pins[pr.Pin].Name)
		}
		for _, io := range n.IOs {
			ew.printf(" ( PIN %s )", io.Name)
		}
		ew.printf(" ;\n")
	}
	ew.printf("END NETS\n\n")
	ew.printf("END DESIGN\n")
	return ew.err
}

// oracleWriteGuides is the former WriteGuides.
func oracleWriteGuides(w io.Writer, d *db.Design, g *grid.Grid, routes []*global.Route) error {
	ew := &oracleErrWriter{w: w}
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		n := d.Nets[rt.NetID]
		ew.printf("%s\n(\n", n.Name)
		for _, wire := range rt.Wires {
			a := g.GCellRect(wire.X, wire.Y)
			var b geom.Rect
			if d.Tech.Layer(wire.L).Dir == tech.Horizontal {
				b = g.GCellRect(wire.X+1, wire.Y)
			} else {
				b = g.GCellRect(wire.X, wire.Y+1)
			}
			u := a.Union(b)
			ew.printf("%d %d %d %d %s\n", u.Lo.X, u.Lo.Y, u.Hi.X, u.Hi.Y, d.Tech.Layer(wire.L).Name)
		}
		for _, v := range rt.Vias {
			r := g.GCellRect(v.X, v.Y)
			ew.printf("%d %d %d %d %s\n", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y, d.Tech.Layer(v.L).Name)
			ew.printf("%d %d %d %d %s\n", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y, d.Tech.Layer(v.L+1).Name)
		}
		ew.printf(")\n")
	}
	return ew.err
}

type oracleErrWriter struct {
	w   io.Writer
	err error
}

func (e *oracleErrWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
