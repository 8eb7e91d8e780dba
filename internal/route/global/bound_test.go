package global

import (
	"testing"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
)

// FuzzEstimateLowerBound checks that EstimateLowerBound never exceeds
// EstimateTerminalCost: the bound over any subset of a terminal set must be
// at most the estimate over the whole set, as floats. CR&P's stay-put bound
// relies on exactly this to prune candidates without pricing them.
//
// The fixture is a routed routeDesign whose Unit_e weights are scaled by
// wire/10 and via/10 (0 keeps the 0.5/2.0 defaults; other values make the
// products inexact). ops are five-byte groups (kind, then four operands): a
// wire or via demand write of up to ~64 tracks, which can overflow an edge
// (the fixture's edges hold 21), or a terminal at a GCell centre. At most
// eight terminals are kept; mask selects the subset the bound sees.
func FuzzEstimateLowerBound(f *testing.F) {
	// No nets and no demand writes: a straight two-GCell net on empty edges
	// of metal2, with wire weighted 12.75 and vias 0.2. The bound undercuts
	// the estimate by little more than one UnitVia: the two pin-layer vias
	// cost at least 1.5·UnitVia each, because the pin layer's penalty is
	// pinned at 1. A bound one wire step too high fails here.
	f.Add(int64(11), uint8(0), uint8(255), uint8(1), uint8(0xff), []byte{
		2, 3, 4, 0, 0,
		2, 3, 5, 0, 0,
	})
	// Two terminals in one GCell: both sides are exactly 0.
	f.Add(int64(11), uint8(0), uint8(0), uint8(0), uint8(0xff), []byte{
		2, 3, 4, 0, 0,
		2, 3, 4, 0, 0,
	})
	// A routed fixture with inexact weights, a row loaded past capacity on
	// both horizontal routing layers, and a five-terminal net bounded over
	// three of its terminals.
	load := []byte{}
	for _, l := range []byte{2, 4} {
		for x := byte(0); x < 8; x++ {
			load = append(load, 0, x, 3, l, 200)
		}
	}
	load = append(load,
		2, 0, 3, 0, 0,
		2, 7, 3, 0, 0,
		2, 2, 6, 0, 0,
		2, 5, 1, 0, 0,
		2, 9, 9, 0, 0)
	f.Add(int64(15), uint8(120), uint8(3), uint8(7), uint8(0b10101), load)
	f.Fuzz(func(t *testing.T, seed int64, nets, wire, via, mask uint8, ops []byte) {
		d := routeDesign(t, 40, int(nets)%151, seed)
		p := grid.DefaultParams()
		if wire != 0 {
			p.UnitWire *= float64(wire) / 10
		}
		if via != 0 {
			p.UnitVia *= float64(via) / 10
		}
		r := New(d, grid.New(d, p), DefaultConfig())
		r.RouteAll()
		g := r.G
		var all, sub []geom.Point
		for i := 0; i+5 <= len(ops); i += 5 {
			kind, a, b, c, u := ops[i]%3, int(ops[i+1]), int(ops[i+2]), int(ops[i+3]), ops[i+4]
			switch kind {
			case 0:
				g.AddWire(a%g.NX, b%g.NY, c%g.NL, float64(u)/4)
			case 1:
				g.AddVia(a%g.NX, b%g.NY, c%(g.NL-1), float64(u)/4)
			case 2:
				if len(all) < 8 {
					pt := g.Center(a%g.NX, b%g.NY)
					if mask&(1<<len(all)) != 0 {
						sub = append(sub, pt)
					}
					all = append(all, pt)
				}
			}
		}
		lb, cost := r.EstimateLowerBound(sub), r.EstimateTerminalCost(all)
		if lb > cost {
			t.Fatalf("bound %v over %v exceeds estimate %v over %v (UnitWire %v, UnitVia %v)",
				lb, sub, cost, all, p.UnitWire, p.UnitVia)
		}
	})
}
