package lefdef

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// ParseDEF reads a design from the subset emitted by WriteDEF, resolving
// macro references against the supplied library.
func ParseDEF(r io.Reader, t *tech.Tech, macros []*db.Macro) (*db.Design, error) {
	tk, err := newTokenizer(r)
	if err != nil {
		return nil, err
	}
	macroByName := map[string]*db.Macro{}
	for _, m := range macros {
		macroByName[m.Name] = m
	}

	var (
		name  string
		die   geom.Rect
		rows  []db.Row
		cells []*db.Cell
		nets  []*db.Net
		obs   []db.Obstacle
	)
	var cellByName map[string]*db.Cell // made at COMPONENTS, sized by its count
	// IO pins arrive before NETS; stash them by net name.
	type pendingIO struct {
		io  db.IOPin
		net string
	}
	var ios []pendingIO

	for !tk.done() {
		tok, _ := tk.next()
		switch tok {
		case "VERSION", "UNITS":
			if err := tk.skipStatement(); err != nil {
				return nil, err
			}
		case "DESIGN":
			if name, err = tk.next(); err != nil {
				return nil, err
			}
			if err := tk.expect(";"); err != nil {
				return nil, err
			}
		case "DIEAREA":
			pts, err := parsePointPair(tk)
			if err != nil {
				return nil, err
			}
			die = geom.R(pts[0].X, pts[0].Y, pts[1].X, pts[1].Y)
			if err := tk.expect(";"); err != nil {
				return nil, err
			}
		case "ROW":
			row, err := parseRow(tk)
			if err != nil {
				return nil, err
			}
			row.Index = int32(len(rows))
			rows = append(rows, row)
		case "COMPONENTS":
			count, err := tk.sectionCount()
			if err != nil {
				return nil, err
			}
			cells = slices.Grow(cells, count)
			if cellByName == nil {
				cellByName = make(map[string]*db.Cell, count)
			}
			for tk.peek() == "-" {
				tk.next()
				c, err := parseComponent(tk, macroByName)
				if err != nil {
					return nil, err
				}
				c.ID = int32(len(cells))
				cells = append(cells, c)
				cellByName[c.Name] = c
			}
			if err := expectEnd(tk, "COMPONENTS"); err != nil {
				return nil, err
			}
		case "PINS":
			if err := tk.skipStatement(); err != nil {
				return nil, err
			}
			for tk.peek() == "-" {
				tk.next()
				pio, netName, err := parseIOPin(tk, t)
				if err != nil {
					return nil, err
				}
				ios = append(ios, pendingIO{pio, netName})
			}
			if err := expectEnd(tk, "PINS"); err != nil {
				return nil, err
			}
		case "BLOCKAGES":
			if err := tk.skipStatement(); err != nil {
				return nil, err
			}
			for tk.peek() == "-" {
				tk.next()
				o, err := parseBlockage(tk, t)
				if err != nil {
					return nil, err
				}
				obs = append(obs, o)
			}
			if err := expectEnd(tk, "BLOCKAGES"); err != nil {
				return nil, err
			}
		case "NETS":
			count, err := tk.sectionCount()
			if err != nil {
				return nil, err
			}
			nets = slices.Grow(nets, count)
			for tk.peek() == "-" {
				tk.next()
				n, err := parseNet(tk, cellByName)
				if err != nil {
					return nil, err
				}
				n.ID = int32(len(nets))
				nets = append(nets, n)
			}
			if err := expectEnd(tk, "NETS"); err != nil {
				return nil, err
			}
		case "END":
			tk.next() // DESIGN
		default:
			return nil, fmt.Errorf("lefdef: unexpected DEF token %q", tok)
		}
	}

	if name == "" {
		return nil, fmt.Errorf("lefdef: DEF has no DESIGN statement")
	}
	if die.Empty() {
		return nil, fmt.Errorf("lefdef: DEF %s has no DIEAREA", name)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("lefdef: DEF %s has no ROW statements", name)
	}

	// Attach IO pins to their nets.
	netByName := make(map[string]*db.Net, len(nets))
	for _, n := range nets {
		netByName[n.Name] = n
	}
	ioNames := make(map[string]bool, len(ios))
	for _, p := range ios {
		if ioNames[p.io.Name] {
			return nil, fmt.Errorf("lefdef: duplicate IO pin %q", p.io.Name)
		}
		ioNames[p.io.Name] = true
		n, ok := netByName[p.net]
		if !ok {
			return nil, fmt.Errorf("lefdef: IO pin %s references unknown net %q", p.io.Name, p.net)
		}
		n.IOs = append(n.IOs, p.io)
	}

	return db.New(name, t, die, rows, macros, cells, nets, obs)
}

// sectionCount consumes a section header's "count ;" and returns the count
// as a capacity hint: a malformed count reads as 0, and any count is capped
// by what the rest of the input can hold, so a forged count allocates
// nothing large.
func (t *tokenizer) sectionCount() (int, error) {
	const minRecordBytes = 16
	n, _ := strconv.Atoi(t.peek())
	n = max(0, min(n, (len(t.src)-t.off)/minRecordBytes))
	return n, t.skipStatement()
}

func expectEnd(tk *tokenizer, section string) error {
	if err := tk.expect("END"); err != nil {
		return err
	}
	return tk.expect(section)
}

func parsePointPair(tk *tokenizer) ([2]geom.Point, error) {
	var out [2]geom.Point
	for i := 0; i < 2; i++ {
		if err := tk.expect("("); err != nil {
			return out, err
		}
		x, err := tk.nextInt()
		if err != nil {
			return out, err
		}
		y, err := tk.nextInt()
		if err != nil {
			return out, err
		}
		if err := tk.expect(")"); err != nil {
			return out, err
		}
		out[i] = geom.Pt(x, y)
	}
	return out, nil
}

func parseOrient(s string) (db.Orient, error) {
	switch s {
	case "N":
		return db.N, nil
	case "FS":
		return db.FS, nil
	default:
		return db.N, fmt.Errorf("lefdef: unsupported orientation %q", s)
	}
}

func parseRow(tk *tokenizer) (db.Row, error) {
	var row db.Row
	if _, err := tk.next(); err != nil { // row name
		return row, err
	}
	if _, err := tk.next(); err != nil { // site name
		return row, err
	}
	x, err := tk.nextInt()
	if err != nil {
		return row, err
	}
	y, err := tk.nextInt()
	if err != nil {
		return row, err
	}
	oTok, err := tk.next()
	if err != nil {
		return row, err
	}
	o, err := parseOrient(oTok)
	if err != nil {
		return row, err
	}
	if err := tk.expect("DO"); err != nil {
		return row, err
	}
	n, err := tk.nextInt()
	if err != nil {
		return row, err
	}
	// BY 1 STEP sx sy ;
	if err := tk.skipStatement(); err != nil {
		return row, err
	}
	row.X, row.Y, row.Orient, row.NumSites = x, y, o, n
	return row, nil
}

func parseComponent(tk *tokenizer, macros map[string]*db.Macro) (*db.Cell, error) {
	c := &db.Cell{}
	name, err := tk.next()
	if err != nil {
		return nil, err
	}
	c.Name = name
	mName, err := tk.next()
	if err != nil {
		return nil, err
	}
	m, ok := macros[mName]
	if !ok {
		return nil, fmt.Errorf("lefdef: component %s uses unknown macro %q", name, mName)
	}
	c.Macro = m
	if err := tk.expect("+"); err != nil {
		return nil, err
	}
	status, err := tk.next()
	if err != nil {
		return nil, err
	}
	switch status {
	case "PLACED":
	case "FIXED":
		c.Fixed = true
	default:
		return nil, fmt.Errorf("lefdef: component %s has unsupported status %q", name, status)
	}
	if err := tk.expect("("); err != nil {
		return nil, err
	}
	x, err := tk.nextInt()
	if err != nil {
		return nil, err
	}
	y, err := tk.nextInt()
	if err != nil {
		return nil, err
	}
	if err := tk.expect(")"); err != nil {
		return nil, err
	}
	oTok, err := tk.next()
	if err != nil {
		return nil, err
	}
	o, err := parseOrient(oTok)
	if err != nil {
		return nil, err
	}
	c.Pos = geom.Pt(x, y)
	c.Orient = o
	return c, tk.expect(";")
}

func parseIOPin(tk *tokenizer, t *tech.Tech) (db.IOPin, string, error) {
	var p db.IOPin
	name, err := tk.next()
	if err != nil {
		return p, "", err
	}
	p.Name = name
	var netName string
	for {
		tok, err := tk.next()
		if err != nil {
			return p, "", err
		}
		if tok == ";" {
			return p, netName, nil
		}
		if tok != "+" {
			return p, "", fmt.Errorf("lefdef: pin %s: expected '+', got %q", name, tok)
		}
		kind, err := tk.next()
		if err != nil {
			return p, "", err
		}
		switch kind {
		case "NET":
			if netName, err = tk.next(); err != nil {
				return p, "", err
			}
		case "LAYER":
			ln, err := tk.next()
			if err != nil {
				return p, "", err
			}
			if l, ok := t.LayerByName(ln); ok {
				p.Layer = l.Index
			} else {
				return p, "", fmt.Errorf("lefdef: pin %s on unknown layer %q", name, ln)
			}
		case "PLACED":
			if err := tk.expect("("); err != nil {
				return p, "", err
			}
			x, err := tk.nextInt()
			if err != nil {
				return p, "", err
			}
			y, err := tk.nextInt()
			if err != nil {
				return p, "", err
			}
			if err := tk.expect(")"); err != nil {
				return p, "", err
			}
			p.Pos = geom.Pt(x, y)
		default:
			return p, "", fmt.Errorf("lefdef: pin %s: unsupported clause %q", name, kind)
		}
	}
}

func parseBlockage(tk *tokenizer, t *tech.Tech) (db.Obstacle, error) {
	var o db.Obstacle
	name, err := tk.next()
	if err != nil {
		return o, err
	}
	o.Name = name
	if err := tk.expect("LAYERS"); err != nil {
		return o, err
	}
	for tk.peek() != "RECT" {
		ln, err := tk.next()
		if err != nil {
			return o, err
		}
		l, ok := t.LayerByName(ln)
		if !ok {
			return o, fmt.Errorf("lefdef: blockage %s on unknown layer %q", name, ln)
		}
		o.Layers = append(o.Layers, l.Index)
	}
	tk.next() // RECT
	pts, err := parsePointPair(tk)
	if err != nil {
		return o, err
	}
	o.Rect = geom.R(pts[0].X, pts[0].Y, pts[1].X, pts[1].Y)
	return o, tk.expect(";")
}

func parseNet(tk *tokenizer, cells map[string]*db.Cell) (*db.Net, error) {
	n := &db.Net{}
	name, err := tk.next()
	if err != nil {
		return nil, err
	}
	n.Name = name
	for {
		tok, err := tk.next()
		if err != nil {
			return nil, err
		}
		if tok == ";" {
			return n, nil
		}
		if tok != "(" {
			return nil, fmt.Errorf("lefdef: net %s: expected '(', got %q", name, tok)
		}
		first, err := tk.next()
		if err != nil {
			return nil, err
		}
		if first == "PIN" {
			// IO pin reference; resolved later via the PINS section, so
			// only consume the name.
			if _, err := tk.next(); err != nil {
				return nil, err
			}
		} else {
			pinName, err := tk.next()
			if err != nil {
				return nil, err
			}
			c, ok := cells[first]
			if !ok {
				return nil, fmt.Errorf("lefdef: net %s references unknown cell %q", name, first)
			}
			pinIdx := int32(-1)
			for i, p := range c.Macro.Pins {
				if p.Name == pinName {
					pinIdx = int32(i)
					break
				}
			}
			if pinIdx < 0 {
				return nil, fmt.Errorf("lefdef: net %s: macro %s has no pin %q", name, c.Macro.Name, pinName)
			}
			n.Pins = append(n.Pins, db.PinRef{Cell: c.ID, Pin: pinIdx})
		}
		if err := tk.expect(")"); err != nil {
			return nil, err
		}
	}
}
