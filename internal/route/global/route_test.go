package global

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/tech"
)

// routeDesign builds a design with nCells cells scattered over a lattice of
// rows and nNets random nets (2-5 pins), deterministically seeded.
func routeDesign(t testing.TB, nCells, nNets int, seed int64) *db.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	nRows, nSites := 24, 240
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
		Pins: []db.PinDef{
			{Name: "A", Offset: geom.Pt(sw/2, rh/4), Layer: 0},
			{Name: "Z", Offset: geom.Pt(3*sw/2, 3*rh/4), Layer: 0},
		},
	}
	used := map[[2]int]bool{}
	cells := make([]*db.Cell, 0, nCells)
	for i := 0; i < nCells; i++ {
		for {
			sx, ry := rng.Intn(nSites-2), rng.Intn(nRows)
			if used[[2]int{sx, ry}] || used[[2]int{sx + 1, ry}] {
				continue
			}
			used[[2]int{sx, ry}] = true
			used[[2]int{sx + 1, ry}] = true
			o := db.N
			if ry%2 == 1 {
				o = db.FS
			}
			cells = append(cells, &db.Cell{
				ID: int32(i), Name: "c" + string(rune('A'+i%26)) + string(rune('0'+i/26)),
				Macro: m, Pos: geom.Pt(sx*sw, ry*rh), Orient: o,
			})
			break
		}
	}
	// Unique names for larger counts.
	for i, c := range cells {
		c.Name = c.Name + "_" + itoa(i)
	}
	nets := make([]*db.Net, nNets)
	for i := range nets {
		deg := 2 + rng.Intn(4)
		pins := make([]db.PinRef, 0, deg)
		seen := map[int32]bool{}
		for len(pins) < deg {
			cid := int32(rng.Intn(nCells))
			if seen[cid] {
				continue
			}
			seen[cid] = true
			pins = append(pins, db.PinRef{Cell: cid, Pin: int32(rng.Intn(2))})
		}
		nets[i] = &db.Net{ID: int32(i), Name: "n" + itoa(i), Pins: pins}
	}
	d, err := db.New("route", tc, die, rows, []*db.Macro{m}, cells, nets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func newRouter(t testing.TB, nCells, nNets int, seed int64) *Router {
	d := routeDesign(t, nCells, nNets, seed)
	g := grid.New(d, grid.DefaultParams())
	return New(d, g, DefaultConfig())
}

// routeConnected verifies that a net's committed route connects all its pin
// GCells at layer 0 through wires and vias.
func routeConnected(r *Router, id int32) bool {
	rt := r.Routes[id]
	gcells := r.netTerminals(id)
	if len(gcells) < 2 {
		return true
	}
	if rt == nil {
		return false
	}
	adj := map[geom.Point3][]geom.Point3{}
	link := func(a, b geom.Point3) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, w := range rt.Wires {
		a := w
		var b geom.Point3
		if r.G.Tech.Layer(w.L).Dir == tech.Horizontal {
			b = geom.Pt3(w.X+1, w.Y, w.L)
		} else {
			b = geom.Pt3(w.X, w.Y+1, w.L)
		}
		link(a, b)
	}
	for _, v := range rt.Vias {
		link(geom.Pt3(v.X, v.Y, v.L), geom.Pt3(v.X, v.Y, v.L+1))
	}
	start := geom.Pt3(gcells[0].X, gcells[0].Y, 0)
	seen := map[geom.Point3]bool{start: true}
	stack := []geom.Point3{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, gc := range gcells {
		if !seen[geom.Pt3(gc.X, gc.Y, 0)] {
			return false
		}
	}
	return true
}

func TestRouteAllConnectsEveryNet(t *testing.T) {
	r := newRouter(t, 60, 40, 1)
	st := r.RouteAll()
	if st.RoutedNets != 40 {
		t.Fatalf("RoutedNets = %d, want 40", st.RoutedNets)
	}
	for id := range r.D.Nets {
		if !routeConnected(r, int32(id)) {
			t.Errorf("net %d not connected", id)
		}
	}
}

func TestDemandAccountingMatchesRoutes(t *testing.T) {
	d := routeDesign(t, 50, 30, 2)
	g := grid.New(d, grid.DefaultParams())
	baseWire := g.TotalWireUsage()
	baseVias := g.TotalViaCount()
	r := New(d, g, DefaultConfig())
	r.RouteAll()
	var wires, vias int
	for _, rt := range r.Routes {
		if rt != nil {
			wires += len(rt.Wires)
			vias += len(rt.Vias)
		}
	}
	if got := g.TotalWireUsage() - baseWire; math.Abs(got-float64(wires)) > 1e-6 {
		t.Errorf("wire demand %v != committed wires %d", got, wires)
	}
	if got := g.TotalViaCount() - baseVias; math.Abs(got-float64(vias)) > 1e-6 {
		t.Errorf("via demand %v != committed vias %d", got, vias)
	}
}

func TestRipUpRestoresGrid(t *testing.T) {
	d := routeDesign(t, 50, 30, 3)
	g := grid.New(d, grid.DefaultParams())
	r := New(d, g, DefaultConfig())
	r.RouteAll()
	wire := g.TotalWireUsage()
	vias := g.TotalViaCount()
	rt := r.RipUp(0)
	if rt == nil {
		t.Fatal("net 0 had no route")
	}
	if r.Routes[0] != nil {
		t.Error("route not cleared")
	}
	r.Commit(rt)
	if math.Abs(g.TotalWireUsage()-wire) > 1e-9 || math.Abs(g.TotalViaCount()-vias) > 1e-9 {
		t.Error("rip-up/commit cycle did not conserve demand")
	}
}

func TestDoubleCommitPanics(t *testing.T) {
	r := newRouter(t, 20, 5, 4)
	r.RouteAll()
	defer func() {
		if recover() == nil {
			t.Error("double commit should panic")
		}
	}()
	r.Commit(&Route{NetID: 0})
}

func TestRipUpUnroutedNet(t *testing.T) {
	r := newRouter(t, 20, 5, 5)
	if rt := r.RipUp(0); rt != nil {
		t.Error("ripping an unrouted net should return nil")
	}
}

func TestNetCost(t *testing.T) {
	r := newRouter(t, 40, 20, 6)
	r.RouteAll()
	for id, rt := range r.Routes {
		c := r.NetCost(int32(id))
		if rt == nil || rt.Empty() {
			if c != 0 {
				t.Errorf("empty route with cost %v", c)
			}
			continue
		}
		if c <= 0 {
			t.Errorf("net %d cost = %v, want > 0", id, c)
		}
	}
	if r.TotalCost() <= 0 {
		t.Error("total cost should be positive")
	}
}

func TestWirelengthAndVias(t *testing.T) {
	r := newRouter(t, 40, 20, 7)
	r.RouteAll()
	if r.WirelengthDBU() <= 0 {
		t.Error("wirelength should be positive")
	}
	if r.ViaCount() <= 0 {
		t.Error("via count should be positive")
	}
}

func TestPatternRouteStraight(t *testing.T) {
	r := newRouter(t, 20, 5, 8)
	a, b := geom.Pt(1, 2), geom.Pt(5, 2)
	p, cost, _ := r.patternRoute(a, b)
	if p == nil {
		t.Fatal("no path")
	}
	if len(p.wires) != 4 {
		t.Errorf("straight route has %d wires, want 4", len(p.wires))
	}
	// All wires on one horizontal layer.
	l := p.wires[0].L
	for _, w := range p.wires {
		if w.L != l {
			t.Error("straight route changed layers")
		}
	}
	if r.G.Tech.Layer(l).Dir != tech.Horizontal {
		t.Error("horizontal run on vertical layer")
	}
	if math.IsInf(cost, 1) || cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	// Endpoint stacks reach layer 0.
	hasLow := false
	for _, v := range p.vias {
		if v.L == 0 {
			hasLow = true
		}
	}
	if !hasLow {
		t.Error("no via stack down to the pin layer")
	}
}

func TestPatternRouteLShape(t *testing.T) {
	r := newRouter(t, 20, 5, 9)
	p, _, _ := r.patternRoute(geom.Pt(1, 1), geom.Pt(4, 5))
	if p == nil {
		t.Fatal("no path")
	}
	// Planar length must equal Manhattan distance (L/Z shapes never detour).
	if len(p.wires) != 3+4 {
		t.Errorf("wires = %d, want 7", len(p.wires))
	}
}

func TestPatternSameGCell(t *testing.T) {
	r := newRouter(t, 20, 5, 10)
	p, cost, _ := r.patternRoute(geom.Pt(2, 2), geom.Pt(2, 2))
	if p == nil || len(p.wires) != 0 || cost != 0 {
		t.Errorf("same-GCell route: %+v cost=%v", p, cost)
	}
}

func TestMazeMatchesPatternOnEmptyGrid(t *testing.T) {
	r := newRouter(t, 20, 5, 11)
	a, b := geom.Pt(0, 0), geom.Pt(6, 4)
	_, pc, _ := r.patternRoute(a, b)
	mp := r.mazeRoute(a, b, math.Inf(1))
	if mp == nil {
		t.Fatal("maze failed")
	}
	mc := r.pathCost(mp)
	if mc > pc+1e-9 {
		t.Errorf("maze cost %v exceeds pattern cost %v — Dijkstra is not optimal?", mc, pc)
	}
}

func TestMazeAvoidsCongestion(t *testing.T) {
	r := newRouter(t, 20, 5, 12)
	a, b := geom.Pt(0, 3), geom.Pt(8, 3)
	// Saturate the straight corridor on every horizontal layer.
	for l := 1; l < r.G.NL; l++ {
		if r.G.Tech.Layer(l).Dir != tech.Horizontal {
			continue
		}
		for x := 0; x < 8; x++ {
			if r.G.HasEdge(x, 3, l) {
				r.G.AddWire(x, 3, l, r.G.Capacity(x, 3, l)*2)
			}
		}
	}
	mp := r.mazeRoute(a, b, math.Inf(1))
	if mp == nil {
		t.Fatal("maze failed")
	}
	// The maze should leave row 3 somewhere.
	left := false
	for _, w := range mp.wires {
		if w.Y != 3 {
			left = true
			break
		}
	}
	if !left {
		t.Error("maze stayed in the saturated corridor")
	}
}

func TestEstimateTerminalCost(t *testing.T) {
	r := newRouter(t, 30, 10, 13)
	// Same GCell: zero.
	p := r.G.Center(2, 2)
	if c := r.EstimateTerminalCost([]geom.Point{p, p}); c != 0 {
		t.Errorf("same-GCell estimate = %v", c)
	}
	// Farther pairs cost more on an uncongested grid.
	near := r.EstimateTerminalCost([]geom.Point{r.G.Center(1, 1), r.G.Center(3, 1)})
	far := r.EstimateTerminalCost([]geom.Point{r.G.Center(1, 1), r.G.Center(9, 1)})
	if !(0 < near && near < far) {
		t.Errorf("estimates not monotone: near=%v far=%v", near, far)
	}
	// Estimation must not mutate the grid.
	before := r.G.TotalWireUsage()
	r.EstimateTerminalCost([]geom.Point{r.G.Center(0, 0), r.G.Center(5, 5)})
	if r.G.TotalWireUsage() != before {
		t.Error("estimate committed demand")
	}
}

func TestRerouteNetAfterMove(t *testing.T) {
	r := newRouter(t, 40, 20, 14)
	r.RouteAll()
	// Move a cell of net 0 and reroute: net must stay connected.
	cid := r.D.Nets[0].Pins[0].Cell
	moved := false
	for _, x := range r.D.FreeSitesIn(10, 0, r.D.Die.Hi.X, r.D.Cells[cid].Macro.Width, map[int32]bool{cid: true}) {
		if err := r.D.MoveCell(cid, geom.Pt(x, 10*r.D.Tech.Site.Height)); err == nil {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("could not move cell")
	}
	for _, nid := range r.D.Cells[cid].Nets {
		r.RerouteNet(nid)
	}
	for _, nid := range r.D.Cells[cid].Nets {
		if !routeConnected(r, nid) {
			t.Errorf("net %d disconnected after move+reroute", nid)
		}
	}
}

func TestRRRReducesOverflow(t *testing.T) {
	// Dense instance to actually create congestion: many nets among few
	// GCells.
	d := routeDesign(t, 80, 300, 15)
	g := grid.New(d, grid.DefaultParams())
	cfgNoRRR := DefaultConfig()
	cfgNoRRR.RRRIterations = 0
	r0 := New(d, g, cfgNoRRR)
	r0.RouteAll()
	before := g.Overflow()

	d2 := routeDesign(t, 80, 300, 15)
	g2 := grid.New(d2, grid.DefaultParams())
	r1 := New(d2, g2, DefaultConfig())
	r1.RouteAll()
	after := g2.Overflow()

	if before.TotalOverflow > 0 && after.TotalOverflow > before.TotalOverflow {
		t.Errorf("RRR increased overflow: %v -> %v", before.TotalOverflow, after.TotalOverflow)
	}
	// Every net still connected after RRR.
	for id := range r1.D.Nets {
		if !routeConnected(r1, int32(id)) {
			t.Errorf("net %d disconnected after RRR", id)
		}
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	r := newRouter(t, 20, 5, 16)
	for _, c := range [][3]int{{0, 0, 0}, {r.G.NX - 1, r.G.NY - 1, r.G.NL - 1}, {3, 2, 1}} {
		id := r.nodeID(c[0], c[1], c[2])
		x, y, l := r.nodeCoords(id)
		if x != c[0] || y != c[1] || l != c[2] {
			t.Errorf("round trip (%v) -> (%d,%d,%d)", c, x, y, l)
		}
	}
}

func BenchmarkRouteAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := routeDesign(b, 100, 80, 20)
		g := grid.New(d, grid.DefaultParams())
		r := New(d, g, DefaultConfig())
		b.StartTimer()
		r.RouteAll()
	}
}

// BenchmarkRouteAllCongested routes the congested RRR fixture from scratch:
// unlike BenchmarkRouteAll's fixture, it sends nets to the maze and runs
// RRR passes.
func BenchmarkRouteAllCongested(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRouter(b, 80, 300, 15)
		b.StartTimer()
		r.RouteAll()
	}
}

// BenchmarkCommitRipUp prices demand writes alone: one op rips up and
// re-commits every route of a routed, congested fixture without routing
// anything — the write-side cost of keeping the grid's prices current.
func BenchmarkCommitRipUp(b *testing.B) {
	r := newRouter(b, 80, 300, 15)
	r.RouteAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range r.Routes {
			if rt := r.RipUp(int32(id)); rt != nil {
				r.Commit(rt)
			}
		}
	}
}

// BenchmarkRerouteNet is CR&P's update-database path on the same fixture:
// one op rips up, re-routes and re-commits every net.
func BenchmarkRerouteNet(b *testing.B) {
	r := newRouter(b, 80, 300, 15)
	r.RouteAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range r.D.Nets {
			r.RerouteNet(int32(id))
		}
	}
}

func BenchmarkEstimateTerminalCost(b *testing.B) {
	d := routeDesign(b, 100, 80, 21)
	g := grid.New(d, grid.DefaultParams())
	r := New(d, g, DefaultConfig())
	r.RouteAll()
	pts := []geom.Point{r.G.Center(1, 1), r.G.Center(8, 3), r.G.Center(4, 7)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EstimateTerminalCost(pts)
	}
}

func TestFinalRerouteNeverIncreasesCost(t *testing.T) {
	// Route with the final pass disabled, measure, then apply the pass
	// manually and require the total cost not to increase.
	d := routeDesign(t, 80, 120, 30)
	g := grid.New(d, grid.DefaultParams())
	cfg := DefaultConfig()
	cfg.FinalReroutePasses = 0
	r := New(d, g, cfg)
	r.RouteAll()
	before := r.TotalCost()
	var order []int32
	for _, n := range d.Nets {
		if n.Degree() >= 2 {
			order = append(order, n.ID)
		}
	}
	r.Cfg.FinalReroutePasses = 1
	r.finalReroute(order)
	after := r.TotalCost()
	if after > before+1e-6 {
		t.Errorf("final reroute increased total cost: %v -> %v", before, after)
	}
	// Connectivity survives.
	for id := range r.D.Nets {
		if !routeConnected(r, int32(id)) {
			t.Fatalf("net %d disconnected by final reroute", id)
		}
	}
}

func TestRouteAllStatsConsistent(t *testing.T) {
	for _, tc := range []struct {
		name          string
		nCells, nNets int
		seed          int64
		congested     bool
	}{
		{"sparse", 60, 40, 31, false},
		// The RRR fixture, also BenchmarkRouteAllCongested's: some nets
		// must still take a strictly cheaper maze path, or the maze gate
		// has gone blind.
		{"congested", 80, 300, 15, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouter(t, tc.nCells, tc.nNets, tc.seed)
			st := r.RouteAll()
			if st.PatternRoutes+st.MazeRoutes != st.RoutedNets {
				t.Errorf("pattern %d + maze %d != routed %d",
					st.PatternRoutes, st.MazeRoutes, st.RoutedNets)
			}
			if st.RRRPasses < 0 || st.RRRPasses > r.Cfg.RRRIterations {
				t.Errorf("RRRPasses = %d out of [0,%d]", st.RRRPasses, r.Cfg.RRRIterations)
			}
			if tc.congested && (st.MazeRoutes == 0 || st.RRRPasses == 0) {
				t.Errorf("congested fixture took no maze path or ran no RRR pass: %+v", st)
			}
		})
	}
}

func TestEstimateCongestionSensitivity(t *testing.T) {
	// Estimating across a saturated corridor must cost more than across a
	// clear one — the property CR&P's candidate ranking relies on.
	r := newRouter(t, 20, 5, 32)
	a, b := geom.Pt(0, 3), geom.Pt(8, 3)
	pa := r.G.Center(a.X, a.Y)
	pb := r.G.Center(b.X, b.Y)
	clear := r.EstimateTerminalCost([]geom.Point{pa, pb})
	for l := 1; l < r.G.NL; l++ {
		if r.G.Tech.Layer(l).Dir != tech.Horizontal {
			continue
		}
		for x := 0; x < 8; x++ {
			for y := 2; y <= 4; y++ {
				if r.G.HasEdge(x, y, l) {
					r.G.AddWire(x, y, l, r.G.Capacity(x, y, l)*2)
				}
			}
		}
	}
	congested := r.EstimateTerminalCost([]geom.Point{pa, pb})
	if congested <= clear {
		t.Errorf("estimate ignored congestion: clear %v vs congested %v", clear, congested)
	}
}
