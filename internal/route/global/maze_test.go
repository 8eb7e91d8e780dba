package global

import (
	"math"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

// FuzzMazeGate checks the maze gate against the Dijkstra it gates. It
// routes a fixture built from fuzzed routeDesign arguments, then runs five-
// byte ops (kind, then four operands): a wire or via demand write of up to
// ~64 tracks, which can overflow an edge (the fixture's edges hold 21), or a
// query of one GCell pair. For each pair, cheaperPathExists at routeTerminals' limit (the
// pattern cost less mazeGateTol relative) must answer yes exactly when
// mazeRoute's path prices below that limit. Within 1e-12 relative of the
// limit either answer passes: the two searches add the same prices in
// different orders.
func FuzzMazeGate(f *testing.F) {
	// The congested RRR fixture, routed with the gate under test: a pair
	// whose maze path wins by only ~0.002 (yes), then a pair whose maze
	// path undercuts the pattern cost by float rounding alone (no).
	f.Add(int64(15), uint8(75), uint16(300), []byte{
		2, 4, 0, 9, 7,
		2, 0, 0, 3, 0,
	})
	// No nets, so the state does not depend on the gate under test: an
	// empty-grid pair, again a rounding-only win (no), a via write
	// elsewhere, then the same pair after its row is loaded on both
	// horizontal routing layers until a detour wins by ~0.11 (yes; less
	// than one UnitWire, so a bound that overestimates by a wire step or
	// a via fails here).
	load := []byte{2, 0, 3, 8, 3, 1, 11, 7, 0, 255}
	for _, l := range []byte{2, 4} {
		for x := byte(0); x < 8; x++ {
			load = append(load, 0, x, 3, l, 79)
		}
	}
	load = append(load, 2, 0, 3, 8, 3)
	f.Add(int64(11), uint8(15), uint16(0), load)
	f.Fuzz(func(t *testing.T, seed int64, cells uint8, nets uint16, ops []byte) {
		r := newRouter(t, 5+int(cells)%76, int(nets)%301, seed)
		r.RouteAll()
		g := r.G
		for i := 0; i+5 <= len(ops); i += 5 {
			kind, p, q, s, u := ops[i]%3, int(ops[i+1]), int(ops[i+2]), int(ops[i+3]), ops[i+4]
			switch kind {
			case 0:
				g.AddWire(p%g.NX, q%g.NY, s%g.NL, float64(u)/4)
			case 1:
				g.AddVia(p%g.NX, q%g.NY, s%(g.NL-1), float64(u)/4)
			case 2:
				a, b := geom.Pt(p%g.NX, q%g.NY), geom.Pt(s%g.NX, int(u)%g.NY)
				_, cost, _ := r.patternRoute(a, b)
				limit := cost * (1 - mazeGateTol)
				got := r.cheaperPathExists(a, b, limit)
				mp := r.mazeRoute(a, b)
				if mp == nil {
					t.Fatalf("op %d: maze found no path %v→%v", i/5, a, b)
				}
				mcost := r.pathCost(mp)
				if math.Abs(mcost-limit) <= 1e-12*limit {
					continue
				}
				if want := mcost < limit; got != want {
					t.Fatalf("op %d: %v→%v: gate says %v, maze path costs %v against limit %v (pattern %v)",
						i/5, a, b, got, mcost, limit, cost)
				}
			}
		}
	})
}
