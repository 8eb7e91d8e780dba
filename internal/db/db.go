// Package db is the design database at the heart of the CR&P flow: the
// netlist (macros, cells, pins, nets), the placement rows, the placement
// occupancy structures used for legality checks and cell moves, and the
// per-cell history sets (hist_c, hist_m) that Algorithm 1 of the paper
// consults when labelling critical cells.
//
// The database owns placement truth. Routing truth (GCell demands, routes,
// guides) lives in internal/grid and internal/route; those packages read
// positions from here and are invalidated through the flow's update step
// when cells move.
package db

import (
	"fmt"
	"sort"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// Orient is a placement orientation. Only the two orientations that appear
// in single-height standard-cell rows are modelled: N (R0) and FS (MY,
// flipped about the X axis), which is how alternating rows share power rails.
type Orient uint8

const (
	// N is the unflipped orientation.
	N Orient = iota
	// FS is flipped south: pin offsets mirror vertically within the cell.
	FS
)

// String implements fmt.Stringer.
func (o Orient) String() string {
	if o == N {
		return "N"
	}
	return "FS"
}

// PinDef is a pin of a macro: an offset from the cell's lower-left corner
// plus the routing layer the pin shape sits on.
type PinDef struct {
	Name   string
	Offset geom.Point // from the macro's lower-left corner, N orientation
	Layer  int        // routing layer index of the pin shape
}

// Macro is a standard-cell master. Height is always one row in this flow
// (the ISPD-2018 designs are single-height standard cells; fixed macros are
// modelled as obstacles instead).
type Macro struct {
	Name   string
	Width  int // DBU; an integer multiple of the site width
	Height int // DBU; equals the row height
	Pins   []PinDef
}

// PinRef identifies one connection of a net: a (cell, pin) pair.
type PinRef struct {
	Cell int32 // cell ID
	Pin  int32 // index into the cell's macro Pins
}

// IOPin is a fixed terminal of a net (a primary input/output pad): an
// absolute position on a layer, independent of any cell.
type IOPin struct {
	Name  string
	Pos   geom.Point
	Layer int
}

// Net connects cell pins and optionally fixed IO pins.
type Net struct {
	ID   int32
	Name string
	Pins []PinRef
	IOs  []IOPin
}

// Degree returns the number of terminals of the net.
func (n *Net) Degree() int { return len(n.Pins) + len(n.IOs) }

// Cell is a placed component instance.
type Cell struct {
	ID     int32
	Name   string
	Macro  *Macro
	Pos    geom.Point // lower-left corner, DBU
	Orient Orient
	Fixed  bool
	Row    int32   // index of the row the cell currently sits in
	Nets   []int32 // IDs of nets touching this cell
}

// Rect returns the cell's occupied area at its current position.
func (c *Cell) Rect() geom.Rect {
	return geom.Rect{Lo: c.Pos, Hi: c.Pos.Add(geom.Pt(c.Macro.Width, c.Macro.Height))}
}

// RectAt returns the area the cell would occupy at pos.
func (c *Cell) RectAt(pos geom.Point) geom.Rect {
	return geom.Rect{Lo: pos, Hi: pos.Add(geom.Pt(c.Macro.Width, c.Macro.Height))}
}

// Row is one standard-cell placement row.
type Row struct {
	Index    int32
	X        int // DBU of the first site's left edge
	Y        int // DBU of the row bottom
	NumSites int
	Orient   Orient // orientation cells in this row must take
}

// Span returns the X interval covered by the row's sites.
func (r *Row) Span(siteW int) geom.Interval {
	return geom.Interval{Lo: r.X, Hi: r.X + r.NumSites*siteW}
}

// Obstacle is a fixed blockage: it blocks placement over its footprint and
// consumes routing resources on the listed layers (Eq. 9's U_f term).
type Obstacle struct {
	Name   string
	Rect   geom.Rect
	Layers []int // routing layers whose tracks the obstacle blocks
}

// Design is a complete physical design: technology, floorplan, netlist and
// current placement.
type Design struct {
	Name   string
	Tech   *tech.Tech
	Die    geom.Rect
	Rows   []Row
	Macros []*Macro
	Cells  []*Cell
	Nets   []*Net
	Obs    []Obstacle

	// rowCells[r] holds the IDs of the cells in row r, sorted by Pos.X.
	rowCells [][]int32

	// History sets from Algorithm 1: criticalHist[c] is true when cell c
	// was labelled critical in an earlier CR&P iteration (hist_c);
	// movedSet[c] is true when it was actually moved (hist_m).
	criticalHist []bool
	movedSet     []bool

	macroByName map[string]*Macro
	cellByName  map[string]*Cell
	netByName   map[string]*Net
}

// New assembles a Design from its parts, builds the derived indices, and
// validates the result. The cells' Nets lists and Row fields are derived
// here; callers only need to fill ID, Name, Macro, Pos, Orient, Fixed.
func New(name string, t *tech.Tech, die geom.Rect, rows []Row, macros []*Macro, cells []*Cell, nets []*Net, obs []Obstacle) (*Design, error) {
	d := &Design{
		Name:   name,
		Tech:   t,
		Die:    die,
		Rows:   rows,
		Macros: macros,
		Cells:  cells,
		Nets:   nets,
		Obs:    obs,
	}
	if err := d.buildIndices(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Design) buildIndices() error {
	d.macroByName = make(map[string]*Macro, len(d.Macros))
	for _, m := range d.Macros {
		if _, dup := d.macroByName[m.Name]; dup {
			return fmt.Errorf("db: duplicate macro %q", m.Name)
		}
		d.macroByName[m.Name] = m
	}
	d.cellByName = make(map[string]*Cell, len(d.Cells))
	for i, c := range d.Cells {
		if c.ID != int32(i) {
			return fmt.Errorf("db: cell %q has ID %d at position %d", c.Name, c.ID, i)
		}
		if _, dup := d.cellByName[c.Name]; dup {
			return fmt.Errorf("db: duplicate cell %q", c.Name)
		}
		d.cellByName[c.Name] = c
		c.Nets = c.Nets[:0]
	}
	d.netByName = make(map[string]*Net, len(d.Nets))
	for i, n := range d.Nets {
		if n.ID != int32(i) {
			return fmt.Errorf("db: net %q has ID %d at position %d", n.Name, n.ID, i)
		}
		if _, dup := d.netByName[n.Name]; dup {
			return fmt.Errorf("db: duplicate net %q", n.Name)
		}
		d.netByName[n.Name] = n
		for _, pr := range n.Pins {
			if pr.Cell < 0 || int(pr.Cell) >= len(d.Cells) {
				return fmt.Errorf("db: net %q references cell %d (have %d cells)", n.Name, pr.Cell, len(d.Cells))
			}
			c := d.Cells[pr.Cell]
			if pr.Pin < 0 || int(pr.Pin) >= len(c.Macro.Pins) {
				return fmt.Errorf("db: net %q references pin %d of cell %q (macro %q has %d pins)",
					n.Name, pr.Pin, c.Name, c.Macro.Name, len(c.Macro.Pins))
			}
			c.Nets = append(c.Nets, n.ID)
		}
	}
	// A cell may connect to the same net through several pins; keep Nets
	// deduplicated so ConnectedCells and cost queries see each net once.
	for _, c := range d.Cells {
		sort.Slice(c.Nets, func(a, b int) bool { return c.Nets[a] < c.Nets[b] })
		c.Nets = dedupInt32(c.Nets)
	}
	d.criticalHist = make([]bool, len(d.Cells))
	d.movedSet = make([]bool, len(d.Cells))
	return d.rebuildRowOccupancy()
}

func dedupInt32(xs []int32) []int32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// rebuildRowOccupancy assigns every cell to the row matching its Y and
// rebuilds the sorted per-row occupancy lists.
func (d *Design) rebuildRowOccupancy() error {
	rowByY := make(map[int]int32, len(d.Rows))
	for i, r := range d.Rows {
		if r.Index != int32(i) {
			return fmt.Errorf("db: row index %d at position %d", r.Index, i)
		}
		rowByY[r.Y] = r.Index
	}
	d.rowCells = make([][]int32, len(d.Rows))
	for _, c := range d.Cells {
		ri, ok := rowByY[c.Pos.Y]
		if !ok {
			return fmt.Errorf("db: cell %q at Y=%d is not on any row", c.Name, c.Pos.Y)
		}
		c.Row = ri
		d.rowCells[ri] = append(d.rowCells[ri], c.ID)
	}
	for ri := range d.rowCells {
		ids := d.rowCells[ri]
		sort.Slice(ids, func(a, b int) bool { return d.Cells[ids[a]].Pos.X < d.Cells[ids[b]].Pos.X })
	}
	return nil
}

// Validate checks placement legality of every cell and structural sanity.
// A freshly generated or parsed design must pass; CR&P must keep it passing
// after every iteration (this is asserted in tests).
func (d *Design) Validate() error {
	for _, c := range d.Cells {
		if err := d.CheckLegal(c, c.Pos); err != nil {
			return fmt.Errorf("cell %q: %w", c.Name, err)
		}
	}
	for ri, ids := range d.rowCells {
		for i := 1; i < len(ids); i++ {
			a, b := d.Cells[ids[i-1]], d.Cells[ids[i]]
			if a.Pos.X+a.Macro.Width > b.Pos.X {
				return fmt.Errorf("row %d: cells %q and %q overlap", ri, a.Name, b.Name)
			}
		}
	}
	return nil
}

// ReconnectNet replaces net nid's cell-pin terminals with pins, keeping the
// per-cell Nets indices consistent, and returns the previous pin list so the
// owning transaction can undo the rewiring on Discard. Every PinRef is
// validated before anything mutates; on error the net is untouched. IO
// terminals are unaffected, and routing state is deliberately not touched —
// callers reroute the net through the owning view.Txn.
func (d *Design) ReconnectNet(nid int32, pins []PinRef) ([]PinRef, error) {
	if nid < 0 || int(nid) >= len(d.Nets) {
		return nil, fmt.Errorf("db: reconnect of unknown net %d (have %d nets)", nid, len(d.Nets))
	}
	n := d.Nets[nid]
	for _, pr := range pins {
		if pr.Cell < 0 || int(pr.Cell) >= len(d.Cells) {
			return nil, fmt.Errorf("db: net %q reconnect references cell %d (have %d cells)", n.Name, pr.Cell, len(d.Cells))
		}
		c := d.Cells[pr.Cell]
		if pr.Pin < 0 || int(pr.Pin) >= len(c.Macro.Pins) {
			return nil, fmt.Errorf("db: net %q reconnect references pin %d of cell %q (macro %q has %d pins)",
				n.Name, pr.Pin, c.Name, c.Macro.Name, len(c.Macro.Pins))
		}
	}
	if len(pins)+len(n.IOs) < 2 {
		return nil, fmt.Errorf("db: net %q reconnect would leave %d terminals", n.Name, len(pins)+len(n.IOs))
	}
	old := n.Pins
	wasOn := make(map[int32]bool, len(old))
	for _, pr := range old {
		wasOn[pr.Cell] = true
	}
	n.Pins = append([]PinRef(nil), pins...)
	isOn := make(map[int32]bool, len(n.Pins))
	for _, pr := range n.Pins {
		isOn[pr.Cell] = true
	}
	// Each cell's Nets list is touched at most once, so map iteration order
	// does not matter: the lists stay sorted and deduplicated.
	for cid := range wasOn {
		if !isOn[cid] {
			d.Cells[cid].Nets = removeSortedInt32(d.Cells[cid].Nets, nid)
		}
	}
	for cid := range isOn {
		if !wasOn[cid] {
			d.Cells[cid].Nets = insertSortedInt32(d.Cells[cid].Nets, nid)
		}
	}
	return old, nil
}

func removeSortedInt32(xs []int32, x int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	if i < len(xs) && xs[i] == x {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}

func insertSortedInt32(xs []int32, x int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	if i < len(xs) && xs[i] == x {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// MacroByName looks up a macro.
func (d *Design) MacroByName(name string) (*Macro, bool) {
	m, ok := d.macroByName[name]
	return m, ok
}

// CellByName looks up a cell.
func (d *Design) CellByName(name string) (*Cell, bool) {
	c, ok := d.cellByName[name]
	return c, ok
}

// NetByName looks up a net.
func (d *Design) NetByName(name string) (*Net, bool) {
	n, ok := d.netByName[name]
	return n, ok
}

// WasCritical reports hist_c for a cell (labelled critical in an earlier
// CR&P iteration).
func (d *Design) WasCritical(id int32) bool { return d.criticalHist[id] }

// WasMoved reports hist_m for a cell (moved in an earlier CR&P iteration).
func (d *Design) WasMoved(id int32) bool { return d.movedSet[id] }

// MarkCritical records that a cell was labelled critical this iteration.
func (d *Design) MarkCritical(id int32) { d.criticalHist[id] = true }

// MarkMoved records that a cell was moved this iteration.
func (d *Design) MarkMoved(id int32) { d.movedSet[id] = true }

// ExportHistory returns copies of the Algorithm 1 history sets (hist_c,
// hist_m), indexed by cell ID — checkpointed so a resumed run re-selects
// critical cells with the same damping as the uninterrupted one.
func (d *Design) ExportHistory() (critical, moved []bool) {
	critical = append([]bool(nil), d.criticalHist...)
	moved = append([]bool(nil), d.movedSet...)
	return critical, moved
}

// ImportHistory restores the history sets from a prior ExportHistory.
func (d *Design) ImportHistory(critical, moved []bool) error {
	if len(critical) != len(d.Cells) || len(moved) != len(d.Cells) {
		return fmt.Errorf("db: history import has %d/%d entries, design has %d cells",
			len(critical), len(moved), len(d.Cells))
	}
	copy(d.criticalHist, critical)
	copy(d.movedSet, moved)
	return nil
}

// Stats summarises the design for Table II-style reporting.
type Stats struct {
	Cells       int
	Nets        int
	Pins        int
	Rows        int
	Node        string
	Utilisation float64 // placed cell area / row area
}

// Stats computes the design statistics.
func (d *Design) Stats() Stats {
	s := Stats{Cells: len(d.Cells), Nets: len(d.Nets), Rows: len(d.Rows), Node: d.Tech.Node}
	for _, n := range d.Nets {
		s.Pins += n.Degree()
	}
	var cellArea, rowArea int64
	for _, c := range d.Cells {
		cellArea += int64(c.Macro.Width) * int64(c.Macro.Height)
	}
	for _, r := range d.Rows {
		rowArea += int64(r.NumSites*d.Tech.Site.Width) * int64(d.Tech.Site.Height)
	}
	for _, o := range d.Obs {
		rowArea -= o.Rect.Area() // blocked area is unusable
	}
	if rowArea > 0 {
		s.Utilisation = float64(cellArea) / float64(rowArea)
	}
	return s
}
