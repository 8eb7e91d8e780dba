package db

import (
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// testDesign builds a small legal design on the n45 node:
//
//	4 rows of 40 sites; 6 cells (widths 2,3,2,4,2,3 sites); 3 nets.
//
// Layout (site units, row index):
//
//	row 0: c0 @ site 0 (w2), c1 @ site 4 (w3)
//	row 1: c2 @ site 0 (w2), c3 @ site 10 (w4)
//	row 2: c4 @ site 8 (w2)
//	row 3: c5 @ site 2 (w3)
func testDesign(t *testing.T) *Design {
	t.Helper()
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	nRows, nSites := 4, 40
	die := geom.R(0, 0, nSites*sw, nRows*rh)

	rows := make([]Row, nRows)
	for i := range rows {
		o := N
		if i%2 == 1 {
			o = FS
		}
		rows[i] = Row{Index: int32(i), X: 0, Y: i * rh, NumSites: nSites, Orient: o}
	}

	mk := func(name string, wSites int) *Macro {
		return &Macro{
			Name:   name,
			Width:  wSites * sw,
			Height: rh,
			Pins: []PinDef{
				{Name: "A", Offset: geom.Pt(sw/2, rh/4), Layer: 0},
				{Name: "Z", Offset: geom.Pt(wSites*sw-sw/2, 3*rh/4), Layer: 0},
			},
		}
	}
	m2, m3, m4 := mk("INV_X2", 2), mk("NAND_X3", 3), mk("DFF_X4", 4)
	macros := []*Macro{m2, m3, m4}

	cell := func(id int32, name string, m *Macro, siteX, row int) *Cell {
		o := N
		if row%2 == 1 {
			o = FS
		}
		return &Cell{ID: id, Name: name, Macro: m, Pos: geom.Pt(siteX*sw, row*rh), Orient: o}
	}
	cells := []*Cell{
		cell(0, "c0", m2, 0, 0),
		cell(1, "c1", m3, 4, 0),
		cell(2, "c2", m2, 0, 1),
		cell(3, "c3", m4, 10, 1),
		cell(4, "c4", m2, 8, 2),
		cell(5, "c5", m3, 2, 3),
	}

	nets := []*Net{
		{ID: 0, Name: "n0", Pins: []PinRef{{0, 1}, {1, 0}}},
		{ID: 1, Name: "n1", Pins: []PinRef{{1, 1}, {2, 0}, {3, 0}}},
		{ID: 2, Name: "n2", Pins: []PinRef{{3, 1}, {4, 0}, {5, 0}},
			IOs: []IOPin{{Name: "out", Pos: geom.Pt(0, nRows*rh-1), Layer: 1}}},
	}

	d, err := New("unit", tc, die, rows, macros, cells, nets, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestNewBuildsIndices(t *testing.T) {
	d := testDesign(t)
	if c, ok := d.CellByName("c3"); !ok || c.ID != 3 {
		t.Error("CellByName(c3) failed")
	}
	if m, ok := d.MacroByName("DFF_X4"); !ok || m.Width != 4*d.Tech.Site.Width {
		t.Error("MacroByName failed")
	}
	// c1 is on nets 0 and 1.
	c1 := d.Cells[1]
	if len(c1.Nets) != 2 || c1.Nets[0] != 0 || c1.Nets[1] != 1 {
		t.Errorf("c1.Nets = %v", c1.Nets)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	die := geom.R(0, 0, 10*sw, rh)
	rows := []Row{{Index: 0, X: 0, Y: 0, NumSites: 10, Orient: N}}
	m := &Macro{Name: "M", Width: 2 * sw, Height: rh}

	// Net referencing a missing pin index.
	cells := []*Cell{{ID: 0, Name: "a", Macro: m, Pos: geom.Pt(0, 0)}}
	nets := []*Net{{ID: 0, Name: "n", Pins: []PinRef{{0, 5}}}}
	if _, err := New("bad", tc, die, rows, []*Macro{m}, cells, nets, nil); err == nil {
		t.Error("want error for bad pin index")
	}

	// Off-grid cell.
	cells = []*Cell{{ID: 0, Name: "a", Macro: m, Pos: geom.Pt(sw/2, 0)}}
	if _, err := New("bad", tc, die, rows, []*Macro{m}, cells, nil, nil); err == nil {
		t.Error("want error for off-grid X")
	}

	// Overlapping cells.
	cells = []*Cell{
		{ID: 0, Name: "a", Macro: m, Pos: geom.Pt(0, 0)},
		{ID: 1, Name: "b", Macro: m, Pos: geom.Pt(sw, 0)},
	}
	if _, err := New("bad", tc, die, rows, []*Macro{m}, cells, nil, nil); err == nil {
		t.Error("want error for overlap")
	}

	// Duplicate cell name.
	cells = []*Cell{
		{ID: 0, Name: "a", Macro: m, Pos: geom.Pt(0, 0)},
		{ID: 1, Name: "a", Macro: m, Pos: geom.Pt(4*sw, 0)},
	}
	if _, err := New("bad", tc, die, rows, []*Macro{m}, cells, nil, nil); err == nil {
		t.Error("want error for duplicate cell name")
	}
}

func TestRowAt(t *testing.T) {
	d := testDesign(t)
	rh := d.Tech.Site.Height
	if r, ok := d.RowAt(2 * rh); !ok || r.Index != 2 {
		t.Errorf("RowAt(2h) = %v, %v", r, ok)
	}
	if _, ok := d.RowAt(rh + 1); ok {
		t.Error("RowAt off-row Y should miss")
	}
	if _, ok := d.RowAt(4 * rh); ok {
		t.Error("RowAt above top row should miss")
	}
	if _, ok := d.RowAt(-rh); ok {
		t.Error("RowAt below bottom should miss")
	}
}

func TestCellsInRowRange(t *testing.T) {
	d := testDesign(t)
	sw := d.Tech.Site.Width
	// Row 0 has c0 at sites [0,2) and c1 at [4,7).
	got := d.CellsInRowRange(0, 0, 40*sw)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("full row = %v", got)
	}
	if got := d.CellsInRowRange(0, 2*sw, 4*sw); len(got) != 0 {
		t.Errorf("gap query = %v", got)
	}
	// Query overlapping c1's interior.
	if got := d.CellsInRowRange(0, 5*sw, 6*sw); len(got) != 1 || got[0] != 1 {
		t.Errorf("interior query = %v", got)
	}
	if got := d.CellsInRowRange(99, 0, 10); got != nil {
		t.Errorf("bad row = %v", got)
	}
}

func TestMoveCell(t *testing.T) {
	d := testDesign(t)
	sw, rh := d.Tech.Site.Width, d.Tech.Site.Height

	// Legal move: c0 to row 2, site 0.
	if err := d.MoveCell(0, geom.Pt(0, 2*rh)); err != nil {
		t.Fatalf("legal move rejected: %v", err)
	}
	if d.Cells[0].Row != 2 || d.Cells[0].Orient != N {
		t.Errorf("cell state after move: row=%d orient=%v", d.Cells[0].Row, d.Cells[0].Orient)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after move: %v", err)
	}

	// Move onto an occupied span must fail and change nothing.
	before := d.Cells[2].Pos
	if err := d.MoveCell(2, geom.Pt(8*sw, 2*rh)); err == nil {
		t.Error("overlapping move accepted")
	}
	if d.Cells[2].Pos != before {
		t.Error("failed move mutated position")
	}

	// Off-grid and off-die moves must fail.
	if err := d.MoveCell(2, geom.Pt(sw/3, 0)); err == nil {
		t.Error("off-grid move accepted")
	}
	if err := d.MoveCell(2, geom.Pt(39*sw, 0)); err == nil {
		t.Error("move past row end accepted")
	}

	// Orientation follows the destination row.
	if err := d.MoveCell(2, geom.Pt(20*sw, 3*rh)); err != nil {
		t.Fatalf("move to row 3: %v", err)
	}
	if d.Cells[2].Orient != FS {
		t.Error("orientation should flip to FS on odd row")
	}
}

func TestMoveCellFixed(t *testing.T) {
	d := testDesign(t)
	d.Cells[0].Fixed = true
	if err := d.MoveCell(0, geom.Pt(0, d.Tech.Site.Height)); err == nil ||
		!strings.Contains(err.Error(), "fixed") {
		t.Errorf("moving fixed cell: err=%v", err)
	}
}

func TestMoveCellsBatchSwap(t *testing.T) {
	d := testDesign(t)
	// Swap c0 (2 sites wide) and c4 (2 sites wide): both targets are only
	// free once the other cell lifts out... here they're in different rows
	// so this checks the batch path plainly.
	p0, p4 := d.Cells[0].Pos, d.Cells[4].Pos
	if err := d.MoveCells(map[int32]geom.Point{0: p4, 4: p0}); err != nil {
		t.Fatalf("swap rejected: %v", err)
	}
	if d.Cells[0].Pos != p4 || d.Cells[4].Pos != p0 {
		t.Error("swap did not take effect")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid after swap: %v", err)
	}
}

func TestMoveCellsBatchConflict(t *testing.T) {
	d := testDesign(t)
	rh := d.Tech.Site.Height
	snap := d.Snapshot()
	// Two cells to the same span of row 2 → pairwise overlap → reject.
	err := d.MoveCells(map[int32]geom.Point{
		0: geom.Pt(0, 2*rh),
		2: geom.Pt(0, 2*rh),
	})
	if err == nil {
		t.Fatal("conflicting batch accepted")
	}
	// Nothing moved.
	cur := d.Snapshot()
	for i := range cur.pos {
		if cur.pos[i] != snap.pos[i] {
			t.Fatalf("cell %d moved on failed batch", i)
		}
	}
}

func TestFreeSitesIn(t *testing.T) {
	d := testDesign(t)
	sw := d.Tech.Site.Width
	// Row 0: c0 at [0,2), c1 at [4,7). Free sites for width 2*sw in
	// sites [0, 12): gap [2,4) fits one start (site 2); after c1, sites
	// 7,8,9,10 (start+2 <= 12).
	got := d.FreeSitesIn(0, 0, 12*sw, 2*sw, nil)
	want := []int{2 * sw, 7 * sw, 8 * sw, 9 * sw, 10 * sw}
	if len(got) != len(want) {
		t.Fatalf("FreeSitesIn = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FreeSitesIn = %v, want %v", got, want)
		}
	}
	// Ignoring c1 opens its span.
	got = d.FreeSitesIn(0, 0, 7*sw, 2*sw, map[int32]bool{1: true})
	want = []int{2 * sw, 3 * sw, 4 * sw, 5 * sw}
	if len(got) != len(want) {
		t.Fatalf("with ignore = %v, want %v", got, want)
	}
}

func TestFreeSitesRespectObstacle(t *testing.T) {
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	die := geom.R(0, 0, 20*sw, rh)
	rows := []Row{{Index: 0, X: 0, Y: 0, NumSites: 20, Orient: N}}
	m := &Macro{Name: "M", Width: 2 * sw, Height: rh}
	obs := []Obstacle{{Name: "blk", Rect: geom.R(5*sw, 0, 10*sw, rh), Layers: []int{0, 1}}}
	d, err := New("obs", tc, die, rows, []*Macro{m}, nil, nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	got := d.FreeSitesIn(0, 0, 20*sw, 2*sw, nil)
	for _, x := range got {
		if x < 10*sw && x+2*sw > 5*sw {
			t.Errorf("free site %d overlaps obstacle", x/sw)
		}
	}
}

func TestPinPositionOrientation(t *testing.T) {
	d := testDesign(t)
	rh := d.Tech.Site.Height
	c0 := d.Cells[0] // row 0, orientation N
	c5 := d.Cells[5] // row 3, orientation FS
	a0 := d.PinPosition(c0, 0)
	if a0 != c0.Pos.Add(geom.Pt(d.Tech.Site.Width/2, rh/4)) {
		t.Errorf("N pin position = %v", a0)
	}
	a5 := d.PinPosition(c5, 0)
	wantY := c5.Pos.Y + (rh - rh/4)
	if a5.Y != wantY {
		t.Errorf("FS pin Y = %d, want %d (mirrored)", a5.Y, wantY)
	}
}

func TestHPWL(t *testing.T) {
	d := testDesign(t)
	// Net n0 connects c0.Z and c1.A; both in row 0, N orientation.
	p1 := d.PinPosition(d.Cells[0], 1)
	p2 := d.PinPosition(d.Cells[1], 0)
	want := int64(geom.Abs(p1.X-p2.X) + geom.Abs(p1.Y-p2.Y))
	if got := d.HPWL(d.Nets[0]); got != want {
		t.Errorf("HPWL(n0) = %d, want %d", got, want)
	}
	if d.TotalHPWL() <= 0 {
		t.Error("TotalHPWL should be positive")
	}
	// Single-pin nets have zero HPWL.
	single := &Net{ID: 0, Pins: []PinRef{{0, 0}}}
	if d.HPWL(single) != 0 {
		t.Error("single-pin HPWL should be 0")
	}
}

func TestConnectedCells(t *testing.T) {
	d := testDesign(t)
	got := d.ConnectedCells(1) // nets 0 (c0) and 1 (c2, c3)
	want := map[int32]bool{0: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("ConnectedCells(1) = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected neighbour %d", id)
		}
	}
}

func TestNetMedianOf(t *testing.T) {
	d := testDesign(t)
	// c4 is on net 2 only, with terminals c3.Z, c5.A and the IO pin.
	m := d.NetMedianOf(4)
	pts := []geom.Point{
		d.PinPosition(d.Cells[3], 1),
		d.PinPosition(d.Cells[5], 0),
		d.Nets[2].IOs[0].Pos,
	}
	want := geom.MedianPoint(pts)
	if m != want {
		t.Errorf("NetMedianOf(4) = %v, want %v", m, want)
	}
	// A cell with no nets gets its own position back.
	d2 := testDesign(t)
	d2.Cells[0].Nets = nil
	if got := d2.NetMedianOf(0); got != d2.Cells[0].Pos {
		t.Errorf("netless median = %v", got)
	}
}

func TestHistory(t *testing.T) {
	d := testDesign(t)
	if d.WasCritical(0) || d.WasMoved(0) {
		t.Error("fresh design should have empty history")
	}
	d.MarkCritical(0)
	d.MarkMoved(0)
	if !d.WasCritical(0) || !d.WasMoved(0) {
		t.Error("marks not recorded")
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := testDesign(t)
	snap := d.Snapshot()
	rh := d.Tech.Site.Height
	if err := d.MoveCell(0, geom.Pt(0, 2*rh)); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if d.Cells[0].Pos != (geom.Point{}) {
		t.Errorf("restore: c0 at %v", d.Cells[0].Pos)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid after restore: %v", err)
	}
	// Occupancy must be rebuilt: the old span must be occupied again.
	if d.IsFreeFor(0, 0, d.Tech.Site.Width, nil) {
		t.Error("occupancy not rebuilt after restore")
	}
}

func TestStats(t *testing.T) {
	d := testDesign(t)
	s := d.Stats()
	if s.Cells != 6 || s.Nets != 3 || s.Rows != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Pins != 2+3+4 {
		t.Errorf("Pins = %d, want 9", s.Pins)
	}
	if s.Utilisation <= 0 || s.Utilisation > 1 {
		t.Errorf("Utilisation = %v", s.Utilisation)
	}
	if s.Node != "45nm" {
		t.Errorf("Node = %q", s.Node)
	}
}
