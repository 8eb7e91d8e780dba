package grid

import (
	"math"
	"testing"

	"github.com/crp-eda/crp/internal/tech"
)

// refPenalty is Eq. 10's logistic penalty recomputed from Demand, Capacity
// and Params alone — the oracle for the cached price arrays.
func refPenalty(g *Grid, x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return 1
	}
	return 1 / (1 + math.Exp(g.Params.Slope*(g.Capacity(x, y, l)-g.Demand(x, y, l))))
}

// refNodePenalty is the planar penalty GCell (x,y) on layer l contributes
// to a via: the edge leaving it, else the edge arriving on the far
// boundary, else 1.
func refNodePenalty(g *Grid, x, y, l int) float64 {
	horizontal := g.Tech.Layer(l).Dir == tech.Horizontal
	switch {
	case g.HasEdge(x, y, l):
		return refPenalty(g, x, y, l)
	case horizontal && x > 0 && g.HasEdge(x-1, y, l):
		return refPenalty(g, x-1, y, l)
	case !horizontal && y > 0 && g.HasEdge(x, y-1, l):
		return refPenalty(g, x, y-1, l)
	}
	return 1
}

// checkPrices compares every cached price of g, bit for bit, against the
// oracle.
func checkPrices(t *testing.T, g *Grid, step int) {
	t.Helper()
	same := func(what string, x, y, l int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: %s(%d,%d,%d) = %v, oracle %v", step, what, x, y, l, got, want)
		}
	}
	for l := 0; l < g.NL; l++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				p := refPenalty(g, x, y, l)
				same("Penalty", x, y, l, g.Penalty(x, y, l), p)
				wire := math.Inf(1)
				if g.HasEdge(x, y, l) {
					wire = g.Params.UnitWire * 1 * (1 + p)
				}
				same("WireEdgeCost", x, y, l, g.WireEdgeCost(x, y, l), wire)
				via := math.Inf(1)
				if l < g.NL-1 {
					vp := (refNodePenalty(g, x, y, l) + refNodePenalty(g, x, y, l+1)) / 2
					via = g.Params.UnitVia * 1 * (1 + vp)
				}
				same("ViaEdgeCost", x, y, l, g.ViaEdgeCost(x, y, l), via)
			}
		}
	}
}

// FuzzGridPrices runs random sequences of demand writes — wire and via
// commits and partial rip-ups on any GCell (last column and row, layer 0
// and the top via layer included), rip-ups back to zero, restores of
// earlier exports, journal attach/detach — and checks after every one that
// each cached price equals the oracle bit for bit. Each op is five bytes:
// kind, x, y, layer, amount.
func FuzzGridPrices(f *testing.F) {
	f.Add([]byte{
		0, 5, 0, 2, 7, // wire on the last column of a horizontal layer (no edge)
		0, 4, 0, 2, 9, // wire on the edge arriving there
		2, 5, 0, 1, 6, // vias M2–M3 at that boundary GCell
		2, 3, 3, 0, 4, // vias on layer 0 (pin layer)
		2, 2, 1, 4, 5, // vias on the top via layer
		0, 0, 3, 1, 3, // wire on the last row of a vertical layer (no edge)
		0, 0, 2, 1, 8, // wire on the edge arriving there
		2, 0, 3, 2, 2, // vias M3–M4 at that boundary GCell
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, // export
		0, 2, 2, 2, 40, // overflow an edge
		2, 2, 2, 1, 12, // and stack vias on it
		8, 0, 0, 0, 0, // attach a journal
		1, 2, 2, 2, 40, // rip the wire up while journalled
		3, 2, 2, 1, 12, // and the vias
		8, 0, 0, 0, 0, // detach
		4, 2, 2, 2, 0, // wire back to zero
		5, 3, 1, 0, 0, // pin vias back to zero
		7, 0, 0, 0, 0, // restore the export
	})
	f.Add([]byte{
		2, 1, 1, 1, 20, 2, 2, 1, 2, 20, 2, 1, 2, 3, 20, 0, 1, 1, 3, 5,
		6, 0, 0, 0, 0, 0, 1, 1, 2, 30, 1, 1, 1, 3, 5, 7, 0, 0, 0, 0,
		5, 1, 1, 1, 0, 5, 2, 1, 2, 0, 4, 1, 1, 3, 0, 4, 1, 1, 2, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := newGrid(t)
		var snaps []DemandState
		checkPrices(t, g, 0)
		for step := 1; len(ops) >= 5; step++ {
			op := ops[:5]
			ops = ops[5:]
			x, y := int(op[1])%g.NX, int(op[2])%g.NY
			wl, vl := int(op[3])%g.NL, int(op[3])%(g.NL-1)
			amt := float64(op[4]) / 4 // quarters sum exactly, so rip-ups reach zero
			switch op[0] % 9 {
			case 0:
				g.AddWire(x, y, wl, amt)
			case 1:
				g.AddWire(x, y, wl, -math.Min(amt, g.WireUsage(x, y, wl)))
			case 2:
				g.AddVia(x, y, vl, amt)
			case 3:
				g.AddVia(x, y, vl, -math.Min(amt, g.ViaCount(x, y, vl)))
			case 4:
				g.AddWire(x, y, wl, -g.WireUsage(x, y, wl))
			case 5:
				g.AddVia(x, y, vl, -g.ViaCount(x, y, vl))
			case 6:
				snaps = append(snaps, g.ExportDemand())
			case 7:
				if len(snaps) == 0 {
					continue
				}
				// A bulk restore refuses an attached journal.
				g.DetachJournal()
				if err := g.RestoreDemand(snaps[int(op[4])%len(snaps)]); err != nil {
					t.Fatal(err)
				}
			case 8:
				if g.DetachJournal() == nil {
					g.AttachJournal(NewJournal())
				}
			}
			checkPrices(t, g, step)
		}
	})
}
