package main

// The output checker is deliberately independent of the code under test: it
// parses the LEF, DEF and route-guide text itself (the subset the flow
// writes) instead of calling internal/lefdef, so a bug in the program's own
// reader or writer cannot hide a bad output.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// lefLib is what the checker needs from a LEF: units, the placement site,
// macro footprints and the routing layer names.
type lefLib struct {
	dbu          int
	siteW, siteH int
	macros       map[string][2]int // name -> width, height in DBU
	layers       map[string]bool   // routing layers
}

func parseLEF(text []byte) (*lefLib, error) {
	lib := &lefLib{macros: map[string][2]int{}, layers: map[string]bool{}}
	var state, name string
	var sizes [][2]float64
	var sizeOwner []string
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch state {
		case "":
			switch {
			case f[0] == "UNITS":
				state = "units"
			case len(f) == 2 && (f[0] == "LAYER" || f[0] == "SITE" || f[0] == "MACRO"):
				state, name = f[0], f[1]
			case len(f) >= 2 && f[0] == "VIA":
				state, name = "VIA", f[1]
			}
		case "units":
			if len(f) >= 3 && f[0] == "DATABASE" && f[1] == "MICRONS" {
				v, err := strconv.Atoi(f[2])
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("lef line %d: bad DATABASE MICRONS", ln)
				}
				lib.dbu = v
			} else if f[0] == "END" {
				state = ""
			}
		default:
			if len(f) >= 4 && f[0] == "SIZE" && f[2] == "BY" && (state == "SITE" || state == "MACRO") {
				w, err1 := strconv.ParseFloat(f[1], 64)
				h, err2 := strconv.ParseFloat(f[3], 64)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("lef line %d: bad SIZE", ln)
				}
				sizes = append(sizes, [2]float64{w, h})
				sizeOwner = append(sizeOwner, state+" "+name)
			}
			if state == "LAYER" && len(f) >= 2 && f[0] == "TYPE" && f[1] == "ROUTING" {
				lib.layers[name] = true
			}
			if len(f) == 2 && f[0] == "END" && f[1] == name {
				state = ""
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lef: %w", err)
	}
	if lib.dbu == 0 {
		return nil, errors.New("lef: no DATABASE MICRONS")
	}
	toDBU := func(um float64) int { return int(math.Round(um * float64(lib.dbu))) }
	for i, owner := range sizeOwner {
		kind, n, _ := strings.Cut(owner, " ")
		w, h := toDBU(sizes[i][0]), toDBU(sizes[i][1])
		if kind == "SITE" {
			lib.siteW, lib.siteH = w, h
		} else {
			lib.macros[n] = [2]int{w, h}
		}
	}
	if lib.siteW <= 0 || lib.siteH <= 0 {
		return nil, errors.New("lef: no SITE size")
	}
	if len(lib.layers) == 0 {
		return nil, errors.New("lef: no routing layers")
	}
	return lib, nil
}

type defRow struct{ x, y, sites, step int }

type defComp struct {
	name, macro string
	x, y        int
}

type defNet struct {
	name      string
	terminals int      // cell pins plus IO pins
	cells     []string // instances the net's cell pins sit on
}

type defDesign struct {
	name  string
	die   [4]int
	rows  []defRow
	comps []defComp
	nets  []defNet
}

// parseDEF reads the DEF subset: header, DIEAREA, ROWs, COMPONENTS and NETS.
// Every section's declared count must match the entries that follow.
func parseDEF(text []byte) (*defDesign, error) {
	d := &defDesign{}
	section := ""
	declared := 0
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	var seenEnd bool
	for ln := 1; sc.Scan(); ln++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		bad := func(what string) error { return fmt.Errorf("def line %d: bad %s", ln, what) }
		if section != "" {
			if f[0] == "END" {
				if len(f) < 2 || f[1] != section {
					return nil, bad("END " + section)
				}
				got := 0
				switch section {
				case "COMPONENTS":
					got = len(d.comps)
				case "NETS":
					got = len(d.nets)
				default:
					got = declared
				}
				if got != declared {
					return nil, fmt.Errorf("def: %s declares %d entries, has %d", section, declared, got)
				}
				section = ""
				continue
			}
			if f[0] != "-" || len(f) < 2 {
				return nil, bad(section + " entry")
			}
			switch section {
			case "COMPONENTS":
				// - name macro + PLACED ( x y ) orient ;
				if len(f) < 10 || f[3] != "+" || (f[4] != "PLACED" && f[4] != "FIXED") || f[5] != "(" || f[8] != ")" {
					return nil, bad("component")
				}
				x, err1 := atoi(f[6])
				y, err2 := atoi(f[7])
				if err1 != nil || err2 != nil {
					return nil, bad("component position")
				}
				d.comps = append(d.comps, defComp{name: f[1], macro: f[2], x: x, y: y})
			case "NETS":
				n := defNet{name: f[1]}
				for i := 2; i < len(f); i++ {
					if f[i] == "(" {
						n.terminals++
						if i+1 < len(f) && f[i+1] != "PIN" {
							n.cells = append(n.cells, f[i+1])
						}
					}
				}
				d.nets = append(d.nets, n)
			}
			continue
		}
		switch f[0] {
		case "DESIGN":
			if len(f) >= 2 {
				d.name = f[1]
			}
		case "DIEAREA":
			if len(f) < 10 {
				return nil, bad("DIEAREA")
			}
			for i, k := range []int{2, 3, 6, 7} {
				v, err := atoi(f[k])
				if err != nil {
					return nil, bad("DIEAREA")
				}
				d.die[i] = v
			}
		case "ROW":
			// ROW name site x y orient DO n BY 1 STEP sx 0 ;
			if len(f) < 12 || f[6] != "DO" || f[10] != "STEP" {
				return nil, bad("ROW")
			}
			x, e1 := atoi(f[3])
			y, e2 := atoi(f[4])
			n, e3 := atoi(f[7])
			st, e4 := atoi(f[11])
			if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
				return nil, bad("ROW")
			}
			d.rows = append(d.rows, defRow{x: x, y: y, sites: n, step: st})
		case "COMPONENTS", "PINS", "NETS", "BLOCKAGES":
			if len(f) < 2 {
				return nil, bad(f[0])
			}
			n, err := atoi(f[1])
			if err != nil {
				return nil, bad(f[0] + " count")
			}
			section, declared = f[0], n
			if f[0] == "PINS" || f[0] == "BLOCKAGES" {
				section = "skip:" + f[0]
			}
		case "END":
			if len(f) >= 2 && f[1] == "DESIGN" {
				seenEnd = true
			}
		}
		if strings.HasPrefix(section, "skip:") {
			// Skip PINS/BLOCKAGES bodies up to their END line.
			want := strings.TrimPrefix(section, "skip:")
			for sc.Scan() {
				ln++
				g := strings.Fields(sc.Text())
				if len(g) >= 2 && g[0] == "END" && g[1] == want {
					break
				}
			}
			section = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("def: %w", err)
	}
	if !seenEnd {
		return nil, errors.New("def: missing END DESIGN (truncated?)")
	}
	if len(d.rows) == 0 {
		return nil, errors.New("def: no rows")
	}
	return d, nil
}

// box is one route-guide rectangle in DBU.
type box struct{ x0, y0, x1, y1 int }

// parseGuides reads an ISPD-2018 route-guide file into net -> boxes,
// checking every box's shape and layer. A net whose terminals share one
// GCell has a block with no boxes.
func parseGuides(text []byte, lib *lefLib) (map[string][]box, error) {
	out := map[string][]box{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	net := ""
	inBlock := false
	for ln := 1; sc.Scan(); ln++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch {
		case !inBlock && net == "":
			if len(f) != 1 {
				return nil, fmt.Errorf("guide line %d: expected a net name", ln)
			}
			net = f[0]
			if _, dup := out[net]; dup {
				return nil, fmt.Errorf("guide line %d: net %s guided twice", ln, net)
			}
		case !inBlock:
			if f[0] != "(" {
				return nil, fmt.Errorf("guide line %d: expected '('", ln)
			}
			inBlock = true
			out[net] = nil
		case f[0] == ")":
			inBlock, net = false, ""
		default:
			if len(f) != 5 {
				return nil, fmt.Errorf("guide line %d: box needs 4 coordinates and a layer", ln)
			}
			var v [4]int
			for i := range v {
				x, err := strconv.Atoi(f[i])
				if err != nil {
					return nil, fmt.Errorf("guide line %d: bad coordinate", ln)
				}
				v[i] = x
			}
			if v[2] <= v[0] || v[3] <= v[1] {
				return nil, fmt.Errorf("guide line %d: empty box", ln)
			}
			if !lib.layers[f[4]] {
				return nil, fmt.Errorf("guide line %d: unknown routing layer %s", ln, f[4])
			}
			out[net] = append(out[net], box{v[0], v[1], v[2], v[3]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("guide: %w", err)
	}
	if inBlock || net != "" {
		return nil, errors.New("guide: truncated block")
	}
	return out, nil
}

// checkPlacement verifies that every component sits on a row at a site
// boundary, inside the row, and that no two cells overlap.
func checkPlacement(d *defDesign, lib *lefLib) error {
	rowAt := map[int]defRow{}
	for _, r := range d.rows {
		rowAt[r.y] = r
	}
	type span struct {
		lo, hi int
		name   string
	}
	byRow := map[int][]span{}
	for _, c := range d.comps {
		sz, ok := lib.macros[c.macro]
		if !ok {
			return fmt.Errorf("cell %s: unknown macro %s", c.name, c.macro)
		}
		r, ok := rowAt[c.y]
		if !ok {
			return fmt.Errorf("cell %s at (%d %d): not on a row", c.name, c.x, c.y)
		}
		if sz[1] != lib.siteH {
			return fmt.Errorf("cell %s: height %d is not one row (%d)", c.name, sz[1], lib.siteH)
		}
		step := r.step
		if step <= 0 {
			step = lib.siteW
		}
		if (c.x-r.x)%step != 0 {
			return fmt.Errorf("cell %s at x=%d: off the site grid (row x=%d, step %d)", c.name, c.x, r.x, step)
		}
		if c.x < r.x || c.x+sz[0] > r.x+r.sites*step {
			return fmt.Errorf("cell %s at x=%d: outside its row", c.name, c.x)
		}
		byRow[c.y] = append(byRow[c.y], span{c.x, c.x + sz[0], c.name})
	}
	for y, spans := range byRow {
		sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				return fmt.Errorf("cells %s and %s overlap in row y=%d", spans[i-1].name, spans[i].name, y)
			}
		}
	}
	return nil
}

// checkOutputs is the per-output verdict: the DEF parses, keeps the input's
// cells (when the input is given), is legally placed, every net with at
// least two terminals has a route-guide block, and a guide with boxes
// reaches every cell the net connects.
func checkOutputs(lib *lefLib, in *defDesign, outDEF, guide []byte) error {
	d, err := parseDEF(outDEF)
	if err != nil {
		return err
	}
	if in != nil {
		if len(in.comps) != len(d.comps) || len(in.nets) != len(d.nets) {
			return fmt.Errorf("output has %d cells/%d nets, input %d/%d", len(d.comps), len(d.nets), len(in.comps), len(in.nets))
		}
		macro := make(map[string]string, len(in.comps))
		for _, c := range in.comps {
			macro[c.name] = c.macro
		}
		for _, c := range d.comps {
			if macro[c.name] != c.macro {
				return fmt.Errorf("output cell %s (%s) is not an input cell", c.name, c.macro)
			}
		}
	}
	if err := checkPlacement(d, lib); err != nil {
		return err
	}
	guides, err := parseGuides(guide, lib)
	if err != nil {
		return err
	}
	footprint := make(map[string]box, len(d.comps))
	for _, c := range d.comps {
		sz := lib.macros[c.macro]
		footprint[c.name] = box{c.x, c.y, c.x + sz[0], c.y + sz[1]}
	}
	for _, n := range d.nets {
		boxes, ok := guides[n.name]
		if n.terminals >= 2 && !ok {
			return fmt.Errorf("net %s (%d terminals) has no route guide", n.name, n.terminals)
		}
		if len(boxes) == 0 {
			continue
		}
		for _, inst := range n.cells {
			fp, ok := footprint[inst]
			if !ok {
				return fmt.Errorf("net %s connects unknown cell %s", n.name, inst)
			}
			if !touchesAny(fp, boxes) {
				return fmt.Errorf("net %s: route guide does not reach cell %s", n.name, inst)
			}
		}
	}
	return nil
}

func touchesAny(b box, boxes []box) bool {
	for _, o := range boxes {
		if b.x0 <= o.x1 && o.x0 <= b.x1 && b.y0 <= o.y1 && o.y0 <= b.y1 {
			return true
		}
	}
	return false
}
