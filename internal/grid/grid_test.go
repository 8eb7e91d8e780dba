package grid

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// gridDesign builds a 12-row, 120-site design with two connected cells and
// one obstacle, giving a small multi-GCell lattice.
func gridDesign(t *testing.T) *db.Design {
	t.Helper()
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	nRows, nSites := 12, 120
	die := geom.R(0, 0, nSites*sw, nRows*rh)
	rows := make([]db.Row, nRows)
	for i := range rows {
		o := db.N
		if i%2 == 1 {
			o = db.FS
		}
		rows[i] = db.Row{Index: int32(i), X: 0, Y: i * rh, NumSites: nSites, Orient: o}
	}
	m := &db.Macro{
		Name: "M", Width: 2 * sw, Height: rh,
		Pins: []db.PinDef{{Name: "A", Offset: geom.Pt(sw/2, rh/2), Layer: 0}},
	}
	cells := []*db.Cell{
		{ID: 0, Name: "a", Macro: m, Pos: geom.Pt(0, 0)},
		{ID: 1, Name: "b", Macro: m, Pos: geom.Pt(100*sw, 10*rh)},
	}
	nets := []*db.Net{{ID: 0, Name: "n", Pins: []db.PinRef{{Cell: 0, Pin: 0}, {Cell: 1, Pin: 0}}}}
	obs := []db.Obstacle{{
		Name: "blk", Rect: geom.R(40*sw, 4*rh, 60*sw, 8*rh), Layers: []int{1, 2},
	}}
	d, err := db.New("grid", tc, die, rows, []*db.Macro{m}, cells, nets, obs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newGrid(t *testing.T) *Grid {
	t.Helper()
	return New(gridDesign(t), DefaultParams())
}

func TestLatticeDimensions(t *testing.T) {
	g := newGrid(t)
	if g.NL != 6 {
		t.Errorf("NL = %d, want 6 (n45)", g.NL)
	}
	if g.NX < 2 || g.NY < 2 {
		t.Fatalf("lattice too small: %dx%d", g.NX, g.NY)
	}
	// Every DBU point of the die maps into bounds.
	d := gridDesign(t)
	for _, p := range []geom.Point{d.Die.Lo, geom.Pt(d.Die.Hi.X-1, d.Die.Hi.Y-1), d.Die.Center()} {
		x, y := g.GCellOf(p)
		if !g.InBounds(x, y) {
			t.Errorf("GCellOf(%v) = (%d,%d) out of bounds", p, x, y)
		}
	}
}

func TestGCellRectRoundTrip(t *testing.T) {
	g := newGrid(t)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			c := g.Center(x, y)
			gx, gy := g.GCellOf(c)
			if gx != x || gy != y {
				t.Fatalf("Center(%d,%d)=%v maps back to (%d,%d)", x, y, c, gx, gy)
			}
		}
	}
}

func TestLayer0HasNoCapacity(t *testing.T) {
	g := newGrid(t)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if g.Capacity(x, y, 0) != 0 {
				t.Fatalf("M1 edge (%d,%d) has capacity", x, y)
			}
		}
	}
}

func TestCapacityMatchesTracks(t *testing.T) {
	g := newGrid(t)
	// metal3 (index 2) is horizontal with pitch 380; GCell height =
	// 3 rows * 2660; expect CellH/pitch tracks.
	want := float64(g.CellH / g.Tech.Layer(2).Pitch)
	if got := g.Capacity(0, 0, 2); got != want {
		t.Errorf("M3 capacity = %v, want %v", got, want)
	}
	// Vertical layer capacity uses the GCell width.
	want = float64(g.CellW / g.Tech.Layer(1).Pitch)
	if got := g.Capacity(0, 0, 1); got != want {
		t.Errorf("M2 capacity = %v, want %v", got, want)
	}
}

func TestBoundaryEdges(t *testing.T) {
	g := newGrid(t)
	// Horizontal layer: no edge leaving the rightmost column.
	if g.HasEdge(g.NX-1, 0, 2) {
		t.Error("edge off the right boundary")
	}
	if !g.HasEdge(g.NX-2, 0, 2) {
		t.Error("interior H edge missing")
	}
	// Vertical layer: no edge leaving the top row.
	if g.HasEdge(0, g.NY-1, 1) {
		t.Error("edge off the top boundary")
	}
	if g.Capacity(g.NX-1, 0, 2) != 0 {
		t.Error("boundary edge should have zero capacity")
	}
}

func TestObstacleSeedsFixedUsage(t *testing.T) {
	g := newGrid(t)
	d := gridDesign(t)
	// A GCell fully inside the obstacle on layer 1 must have fixed usage
	// equal to its full capacity.
	inner := d.Obs[0].Rect.Center()
	x, y := g.GCellOf(inner)
	fu := g.FixedUsage(x, y, 1)
	if fu <= 0 {
		t.Fatalf("no fixed usage under obstacle at (%d,%d)", x, y)
	}
	// Far corner: no fixed usage.
	if g.FixedUsage(0, 0, 1) != 0 {
		t.Error("fixed usage leaked to empty GCell on layer 1")
	}
	// Layer 3 is not blocked by the obstacle.
	if g.FixedUsage(x, y, 3) != 0 {
		t.Error("obstacle blocked an unlisted layer")
	}
}

func TestPinSeedsVias(t *testing.T) {
	g := newGrid(t)
	d := gridDesign(t)
	p := d.PinPosition(d.Cells[0], 0)
	x, y := g.GCellOf(p)
	if g.ViaCount(x, y, 0) < 1 {
		t.Errorf("pin GCell (%d,%d) has via count %v, want >= 1", x, y, g.ViaCount(x, y, 0))
	}
}

func TestDemandEquation(t *testing.T) {
	g := newGrid(t)
	// Pick an interior empty edge on layer 2 and add known quantities.
	x, y := 3, 3
	if !g.HasEdge(x, y, 2) {
		t.Skip("lattice smaller than expected")
	}
	base := g.Demand(x, y, 2)
	g.AddWire(x, y, 2, 3)
	if got := g.Demand(x, y, 2); math.Abs(got-base-3) > 1e-12 {
		t.Errorf("wire demand delta = %v, want 3", got-base)
	}
	// Vias at src raise demand by beta*sqrt((V+0)/2) on an edge with no
	// prior vias at either end.
	g2 := newGrid(t)
	g2.AddVia(x, y, 1, 2) // vias between M2 and M3 at src
	want := beta * math.Sqrt((2+0)/2.0)
	got := g2.Demand(x, y, 2) - base
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("via demand delta = %v, want %v", got, want)
	}
}

func TestPenaltyShape(t *testing.T) {
	g := newGrid(t)
	x, y, l := 2, 2, 2
	// Uncongested edge: penalty near 0 (demand far below capacity).
	p0 := g.Penalty(x, y, l)
	if p0 > 0.3 {
		t.Errorf("empty edge penalty = %v, want small", p0)
	}
	// Fill demand to exactly capacity: penalty = 0.5.
	gap := g.Capacity(x, y, l) - g.Demand(x, y, l)
	g.AddWire(x, y, l, gap)
	if p := g.Penalty(x, y, l); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("at-capacity penalty = %v, want 0.5", p)
	}
	// Overflow: penalty approaches 1 and is monotone in demand.
	g.AddWire(x, y, l, 5)
	p1 := g.Penalty(x, y, l)
	g.AddWire(x, y, l, 5)
	p2 := g.Penalty(x, y, l)
	if !(0.5 < p1 && p1 < p2 && p2 < 1) {
		t.Errorf("penalty not increasing into overflow: %v then %v", p1, p2)
	}
}

func TestSlopeSharpensPenalty(t *testing.T) {
	d := gridDesign(t)
	pSoft := DefaultParams()
	pSoft.Slope = 0.5
	pHard := DefaultParams()
	pHard.Slope = 4.0
	gs := New(d, pSoft)
	gh := New(d, pHard)
	x, y, l := 2, 2, 2
	// Push both a little over capacity.
	for _, g := range []*Grid{gs, gh} {
		g.AddWire(x, y, l, g.Capacity(x, y, l)-g.Demand(x, y, l)+2)
	}
	if gh.Penalty(x, y, l) <= gs.Penalty(x, y, l) {
		t.Errorf("larger slope should penalise overflow harder: hard=%v soft=%v",
			gh.Penalty(x, y, l), gs.Penalty(x, y, l))
	}
}

// An edge that does not exist has no demand and the maximal penalty: its
// Demand must not read a neighbouring GCell's vias through the dense
// layout, nor index past it.
func TestMissingEdgeDemandAndPenalty(t *testing.T) {
	g := newGrid(t)
	// Vias at the first GCell of row 1 — the dense-layout successor of the
	// last column of row 0.
	g.AddVia(0, 1, 2, 5)
	for _, tc := range []struct {
		name    string
		x, y, l int
	}{
		{"last column, horizontal layer", g.NX - 1, 0, 2},
		{"last row, vertical layer", 0, g.NY - 1, 1},
		{"layer 0", 2, 2, 0},
		{"out of bounds", g.NX, g.NY - 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if g.HasEdge(tc.x, tc.y, tc.l) {
				t.Fatal("fixture: the edge exists")
			}
			if d := g.Demand(tc.x, tc.y, tc.l); d != 0 {
				t.Errorf("Demand = %v, want 0", d)
			}
			if p := g.Penalty(tc.x, tc.y, tc.l); p != 1 {
				t.Errorf("Penalty = %v, want 1", p)
			}
		})
	}
}

func TestWireEdgeCost(t *testing.T) {
	g := newGrid(t)
	x, y, l := 2, 2, 2
	cost := g.WireEdgeCost(x, y, l)
	wantMin := g.Params.UnitWire // penalty >= 0
	wantMax := 2 * g.Params.UnitWire
	if cost < wantMin || cost > wantMax {
		t.Errorf("wire cost = %v, want in [%v,%v]", cost, wantMin, wantMax)
	}
	if !math.IsInf(g.WireEdgeCost(g.NX-1, 0, 2), 1) {
		t.Error("nonexistent edge should cost +Inf")
	}
}

func TestViaEdgeCost(t *testing.T) {
	g := newGrid(t)
	c := g.ViaEdgeCost(2, 2, 2)
	if c < g.Params.UnitVia || c > 2*g.Params.UnitVia {
		t.Errorf("via cost = %v out of range", c)
	}
	if !math.IsInf(g.ViaEdgeCost(2, 2, g.NL-1), 1) {
		t.Error("via above top layer should cost +Inf")
	}
	// A via touching unroutable M1 carries the max penalty on that side.
	cLow := g.ViaEdgeCost(2, 2, 0)
	if cLow <= c {
		t.Errorf("via to M1 (%v) should cost more than mid-stack via (%v)", cLow, c)
	}
}

func TestViaCostRisesWithCongestion(t *testing.T) {
	g := newGrid(t)
	x, y := 2, 2
	before := g.ViaEdgeCost(x, y, 1)
	// Congest both layers the via joins.
	g.AddWire(x, y, 1, g.Capacity(x, y, 1)+3)
	g.AddWire(x, y, 2, g.Capacity(x, y, 2)+3)
	after := g.ViaEdgeCost(x, y, 1)
	if after <= before {
		t.Errorf("via cost should rise with congestion: %v -> %v", before, after)
	}
}

func TestAddWireNegativePanics(t *testing.T) {
	g := newGrid(t)
	defer func() {
		if recover() == nil {
			t.Error("ripping up more than committed should panic")
		}
	}()
	g.AddWire(2, 2, 2, -1)
}

func TestOverflowStats(t *testing.T) {
	g := newGrid(t)
	if s := g.Overflow(); s.OverflowedEdges != 0 {
		t.Fatalf("fresh grid overflowed: %+v", s)
	}
	x, y, l := 2, 2, 2
	g.AddWire(x, y, l, g.Capacity(x, y, l)+4)
	s := g.Overflow()
	if s.OverflowedEdges != 1 {
		t.Errorf("OverflowedEdges = %d, want 1", s.OverflowedEdges)
	}
	if s.MaxOverflow <= 0 || s.TotalOverflow < s.MaxOverflow {
		t.Errorf("stats inconsistent: %+v", s)
	}
}

func TestEdgeCongestion(t *testing.T) {
	g := newGrid(t)
	x, y, l := 2, 2, 2
	g.AddWire(x, y, l, g.Capacity(x, y, l)) // fill to capacity (+ via seed)
	if got := g.EdgeCongestion(x, y, l); got < 1 {
		t.Errorf("congestion = %v, want >= 1", got)
	}
	if g.EdgeCongestion(0, 0, 0) != 0 {
		t.Error("M1 congestion should be 0 (no capacity)")
	}
}

// Wire accounting is conservative: committing then ripping identical usage
// returns the grid to its starting state.
func TestWireConservation(t *testing.T) {
	g := newGrid(t)
	rng := rand.New(rand.NewSource(8))
	type op struct{ x, y, l int }
	var ops []op
	before := g.TotalWireUsage()
	for i := 0; i < 200; i++ {
		x, y := rng.Intn(g.NX), rng.Intn(g.NY)
		l := 1 + rng.Intn(g.NL-1)
		if !g.HasEdge(x, y, l) {
			continue
		}
		g.AddWire(x, y, l, 1)
		ops = append(ops, op{x, y, l})
	}
	for _, o := range ops {
		g.AddWire(o.x, o.y, o.l, -1)
	}
	if after := g.TotalWireUsage(); math.Abs(after-before) > 1e-9 {
		t.Errorf("wire usage not conserved: before %v, after %v", before, after)
	}
}

func TestTotalViaCount(t *testing.T) {
	g := newGrid(t)
	base := g.TotalViaCount()
	g.AddVia(1, 1, 2, 3)
	if got := g.TotalViaCount(); math.Abs(got-base-3) > 1e-12 {
		t.Errorf("TotalViaCount delta = %v, want 3", got-base)
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if beta != 1.5 {
		t.Errorf("beta = %v, want 1.5 (paper Section IV.A)", beta)
	}
	if p.UnitWire != 0.5 || p.UnitVia != 2.0 {
		t.Errorf("units = %v/%v, want 0.5/2.0 (ISPD-2018 weights)", p.UnitWire, p.UnitVia)
	}
}
