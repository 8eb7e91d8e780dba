// Package lefdef reads and writes the LEF/DEF subset the CR&P flow uses as
// its file interface (Fig. 1: LEF + DEF in, DEF + route guides out). The
// subset covers exactly what the flow consumes — routing layers, vias,
// sites and macro pins on the LEF side; die area, rows, components, IO pins,
// blockages and nets on the DEF side — with the standard statement syntax,
// so the files remain readable by LEF/DEF-aware tooling. Writer and reader
// round-trip: Parse(Write(x)) reproduces x.
package lefdef

import (
	"io"
	"strconv"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/tech"
)

// WriteLEF emits the technology and the design's macro library.
func WriteLEF(w io.Writer, t *tech.Tech, macros []*db.Macro) error {
	aw := newAppendWriter(w)
	dbu := float64(t.DBU)
	um := func(v int) float64 { return float64(v) / dbu }

	aw.s("VERSION 5.8 ;\n")
	aw.s("BUSBITCHARS \"[]\" ;\n")
	aw.s("DIVIDERCHAR \"/\" ;\n")
	aw.s("UNITS\n  DATABASE MICRONS ").d(t.DBU).s(" ;\nEND UNITS\n\n")

	for _, l := range t.Layers {
		dir := "HORIZONTAL"
		if l.Dir == tech.Vertical {
			dir = "VERTICAL"
		}
		aw.s("LAYER ").s(l.Name).s("\n")
		aw.s("  TYPE ROUTING ;\n")
		aw.s("  DIRECTION ").s(dir).s(" ;\n")
		aw.s("  PITCH ").f4(um(l.Pitch)).s(" ;\n")
		aw.s("  WIDTH ").f4(um(l.Width)).s(" ;\n")
		aw.s("  SPACING ").f4(um(l.Spacing)).s(" ;\n")
		aw.s("  AREA ").f6(float64(l.MinArea) / (dbu * dbu)).s(" ;\n")
		aw.s("  OFFSET ").f4(um(l.Offset)).s(" ;\n")
		aw.s("END ").s(l.Name).s("\n\n")
	}
	for _, v := range t.Vias {
		aw.s("VIA ").s(v.Name).s(" DEFAULT\n")
		aw.s("  LAYERBELOW ").s(t.Layers[v.Below].Name).s(" ;\n")
		aw.s("  CUTSIZE ").f4(um(v.CutSize)).s(" ;\n")
		aw.s("END ").s(v.Name).s("\n\n")
	}
	aw.s("SITE ").s(t.Site.Name).s("\n  CLASS CORE ;\n  SIZE ").f4(um(t.Site.Width)).s(" BY ").f4(um(t.Site.Height)).
		s(" ;\nEND ").s(t.Site.Name).s("\n\n")

	for _, m := range macros {
		aw.s("MACRO ").s(m.Name).s("\n")
		aw.s("  CLASS CORE ;\n")
		aw.s("  SIZE ").f4(um(m.Width)).s(" BY ").f4(um(m.Height)).s(" ;\n")
		aw.s("  SITE ").s(t.Site.Name).s(" ;\n")
		for _, p := range m.Pins {
			aw.s("  PIN ").s(p.Name).s("\n")
			aw.s("    PORT\n")
			aw.s("      LAYER ").s(t.Layers[p.Layer].Name).s(" ;\n")
			aw.s("      POINT ").f4(um(p.Offset.X)).s(" ").f4(um(p.Offset.Y)).s(" ;\n")
			aw.s("    END\n")
			aw.s("  END ").s(p.Name).s("\n")
		}
		aw.s("END ").s(m.Name).s("\n\n")
	}
	aw.s("END LIBRARY\n")
	return aw.flush()
}

// WriteDEF emits the design: floorplan, placement and netlist.
func WriteDEF(w io.Writer, d *db.Design) error {
	aw := newAppendWriter(w)
	t := d.Tech

	aw.s("VERSION 5.8 ;\n")
	aw.s("DESIGN ").s(d.Name).s(" ;\n")
	aw.s("UNITS DISTANCE MICRONS ").d(t.DBU).s(" ;\n\n")
	aw.s("DIEAREA ( ").d(d.Die.Lo.X).s(" ").d(d.Die.Lo.Y).s(" ) ( ").d(d.Die.Hi.X).s(" ").d(d.Die.Hi.Y).s(" ) ;\n\n")

	for _, r := range d.Rows {
		aw.s("ROW row_").d(int(r.Index)).s(" ").s(t.Site.Name).s(" ").d(r.X).s(" ").d(r.Y).s(" ").s(r.Orient.String()).
			s(" DO ").d(r.NumSites).s(" BY 1 STEP ").d(t.Site.Width).s(" 0 ;\n")
	}
	aw.s("\nCOMPONENTS ").d(len(d.Cells)).s(" ;\n")
	for _, c := range d.Cells {
		status := "PLACED"
		if c.Fixed {
			status = "FIXED"
		}
		aw.s("- ").s(c.Name).s(" ").s(c.Macro.Name).s(" + ").s(status).s(" ( ").d(c.Pos.X).s(" ").d(c.Pos.Y).s(" ) ").
			s(c.Orient.String()).s(" ;\n")
	}
	aw.s("END COMPONENTS\n\n")

	nIOs := 0
	for _, n := range d.Nets {
		nIOs += len(n.IOs)
	}
	aw.s("PINS ").d(nIOs).s(" ;\n")
	for _, n := range d.Nets {
		for _, io := range n.IOs {
			aw.s("- ").s(io.Name).s(" + NET ").s(n.Name).s(" + LAYER ").s(t.Layers[io.Layer].Name).
				s(" + PLACED ( ").d(io.Pos.X).s(" ").d(io.Pos.Y).s(" ) ;\n")
		}
	}
	aw.s("END PINS\n\n")

	aw.s("BLOCKAGES ").d(len(d.Obs)).s(" ;\n")
	for _, o := range d.Obs {
		aw.s("- ").s(o.Name).s(" LAYERS")
		for _, l := range o.Layers {
			aw.s(" ").s(t.Layers[l].Name)
		}
		aw.s(" RECT ( ").d(o.Rect.Lo.X).s(" ").d(o.Rect.Lo.Y).s(" ) ( ").d(o.Rect.Hi.X).s(" ").d(o.Rect.Hi.Y).s(" ) ;\n")
	}
	aw.s("END BLOCKAGES\n\n")

	aw.s("NETS ").d(len(d.Nets)).s(" ;\n")
	for _, n := range d.Nets {
		aw.s("- ").s(n.Name)
		for _, pr := range n.Pins {
			c := d.Cells[pr.Cell]
			aw.s(" ( ").s(c.Name).s(" ").s(c.Macro.Pins[pr.Pin].Name).s(" )")
		}
		for _, io := range n.IOs {
			aw.s(" ( PIN ").s(io.Name).s(" )")
		}
		aw.s(" ;\n")
	}
	aw.s("END NETS\n\n")
	aw.s("END DESIGN\n")
	return aw.flush()
}

// WriteGuides emits the route-guide file handed to the detailed router in
// the ISPD-2018 guide format: for each net, one DBU box per GCell edge its
// route occupies, tagged with the layer name.
func WriteGuides(w io.Writer, d *db.Design, g *grid.Grid, routes []*global.Route) error {
	aw := newAppendWriter(w)
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		aw.s(d.Nets[rt.NetID].Name).s("\n(\n")
		for _, wire := range rt.Wires {
			l := d.Tech.Layer(wire.L)
			a := g.GCellRect(wire.X, wire.Y)
			var b geom.Rect
			if l.Dir == tech.Horizontal {
				b = g.GCellRect(wire.X+1, wire.Y)
			} else {
				b = g.GCellRect(wire.X, wire.Y+1)
			}
			aw.box(a.Union(b), l.Name)
		}
		for _, v := range rt.Vias {
			r := g.GCellRect(v.X, v.Y)
			aw.box(r, d.Tech.Layer(v.L).Name)
			aw.box(r, d.Tech.Layer(v.L+1).Name)
		}
		aw.s(")\n")
	}
	return aw.flush()
}

// flushSize is the buffered output at which an appendWriter hands its
// buffer to the underlying writer, so no file sits in memory whole.
const flushSize = 64 << 10

// appendWriter formats output by appending into one bounded buffer with
// strconv, the same bytes fmt's verbs produce: s is %s, d is %d, f4 and f6
// are %.4f and %.6f. The first write error stops all further writes and is
// what flush returns.
type appendWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newAppendWriter(w io.Writer) *appendWriter {
	return &appendWriter{w: w, buf: make([]byte, 0, flushSize+1024)}
}

func (a *appendWriter) s(v string) *appendWriter {
	a.buf = append(a.buf, v...)
	if len(a.buf) >= flushSize {
		a.flush()
	}
	return a
}

func (a *appendWriter) d(v int) *appendWriter {
	a.buf = strconv.AppendInt(a.buf, int64(v), 10)
	return a
}

func (a *appendWriter) f4(v float64) *appendWriter {
	a.buf = strconv.AppendFloat(a.buf, v, 'f', 4, 64)
	return a
}

func (a *appendWriter) f6(v float64) *appendWriter {
	a.buf = strconv.AppendFloat(a.buf, v, 'f', 6, 64)
	return a
}

// box appends one guide line: the rectangle's corners and a layer name.
func (a *appendWriter) box(r geom.Rect, layer string) {
	a.d(r.Lo.X).s(" ").d(r.Lo.Y).s(" ").d(r.Hi.X).s(" ").d(r.Hi.Y).s(" ").s(layer).s("\n")
}

// flush hands the buffered bytes to the underlying writer unless an
// earlier write failed, and returns the first write error.
func (a *appendWriter) flush() error {
	if a.err == nil && len(a.buf) > 0 {
		_, a.err = a.w.Write(a.buf)
	}
	a.buf = a.buf[:0]
	return a.err
}
