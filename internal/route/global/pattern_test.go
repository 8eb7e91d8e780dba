package global

import (
	"math"
	"slices"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

// FuzzPatternRoute checks the layer DP that prices and builds pattern
// routes against a DP that keeps every row and materialises its path as it
// always did (assignLayersOracle). The fixture and the five-byte ops are
// FuzzMazeGate's: wire and via demand writes, or a query of one GCell pair.
// For each pair, patternRoute's wires, vias and cost must equal the
// oracle's on the first cheapest candidate by the oracle's prices (cost bit
// for bit), and patternCost must bit-equal that cost.
func FuzzPatternRoute(f *testing.F) {
	// An empty fixture: a straight pair, an L pair, a Z-sampled pair and a
	// single GCell.
	f.Add(int64(11), uint8(15), uint16(0), []byte{
		2, 0, 3, 8, 3,
		2, 1, 1, 6, 9,
		2, 9, 2, 1, 7,
		2, 4, 4, 4, 4,
	})
	// The congested RRR fixture, a loaded row on both horizontal routing
	// layers and a via write, then pairs across and along the row.
	load := []byte{1, 3, 3, 1, 255}
	for _, l := range []byte{2, 4} {
		for x := byte(0); x < 8; x++ {
			load = append(load, 0, x, 3, l, 79)
		}
	}
	load = append(load,
		2, 0, 3, 8, 3,
		2, 0, 0, 7, 6,
		2, 7, 6, 0, 0,
		2, 3, 0, 3, 9)
	f.Add(int64(15), uint8(75), uint16(300), load)
	// An exact tie in the layer DP of the winning candidate. Five cells and
	// no nets; GCell column 4 carries 7 tracks on metal2, so each of its
	// edges has 14 free tracks and prices exactly as on metal4. Columns 3
	// and 5 are loaded past capacity on metal2 away from the pair's own
	// GCells, as are the metal3 edges leaving the L shapes' far corners.
	// For (3,0)→(5,7) the Z through column 4 then wins by 0.5, and its
	// middle run costs the same on metal2 and metal4 from metal3 and back:
	// the DP must keep the first predecessor layer, metal2.
	tie := []byte{}
	for y := byte(0); y < 7; y++ {
		tie = append(tie, 0, 4, y, 1, 28)
	}
	for y := byte(0); y < 6; y++ {
		tie = append(tie, 0, 5, y, 1, 255, 0, 3, y+1, 1, 255)
	}
	tie = append(tie, 0, 5, 0, 2, 255, 0, 3, 7, 2, 255, 2, 3, 0, 5, 7)
	f.Add(int64(11), uint8(0), uint16(0), tie)
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
				var want *path
				wantCost := math.Inf(1)
				for _, c := range r.candidateJunctions(nil, a, b) {
					if cp, cc := r.assignLayersOracle(c.points()); cc < wantCost {
						want, wantCost = cp, cc
					}
				}
				got, cost, _ := r.patternRoute(a, b)
				if math.Float64bits(cost) != math.Float64bits(wantCost) || !samePath(got, want) {
					t.Fatalf("op %d: %v→%v: patternRoute gives %+v at %v, the oracle %+v at %v",
						i/5, a, b, got, cost, want, wantCost)
				}
				sc := r.getScratch()
				pc, _ := r.patternCost(a, b, sc)
				r.putScratch(sc)
				if math.Float64bits(pc) != math.Float64bits(wantCost) {
					t.Fatalf("op %d: %v→%v: patternCost %v, oracle %v", i/5, a, b, pc, wantCost)
				}
			}
		}
	})
}

// samePath reports whether p and q are both nil or hold the same wires and
// vias in the same order.
func samePath(p, q *path) bool {
	if p == nil || q == nil {
		return p == q
	}
	return slices.Equal(p.wires, q.wires) && slices.Equal(p.vias, q.vias)
}

// assignLayersOracle runs the junction-layer DP over a planar candidate
// path and materialises the best 3D realisation. Endpoints connect to
// layer 0.
func (r *Router) assignLayersOracle(junctions []geom.Point) (*path, float64) {
	rs := runsOf(nil, junctions)
	NL := r.G.NL
	if len(rs) == 0 {
		// Single-GCell connection: no wires, no vias (pin stack is
		// shared with whatever else reaches this GCell).
		return &path{}, 0
	}

	// dp[i][l]: best cost of realising runs[0..i] with run i on layer l.
	dp := make([][]float64, len(rs))
	arg := make([][]int, len(rs))
	for i := range dp {
		dp[i] = make([]float64, NL)
		arg[i] = make([]int, NL)
		for l := range dp[i] {
			dp[i][l] = math.Inf(1)
			arg[i][l] = -1
		}
	}
	start := junctions[0]
	for l := 1; l < NL; l++ {
		rc := r.runCost(rs[0], l)
		if math.IsInf(rc, 1) {
			continue
		}
		dp[0][l] = r.stackCost(start, 0, l) + rc
	}
	for i := 1; i < len(rs); i++ {
		junction := rs[i].from
		for l := 1; l < NL; l++ {
			rc := r.runCost(rs[i], l)
			if math.IsInf(rc, 1) {
				continue
			}
			for pl := 1; pl < NL; pl++ {
				if math.IsInf(dp[i-1][pl], 1) {
					continue
				}
				c := dp[i-1][pl] + r.stackCost(junction, pl, l) + rc
				if c < dp[i][l] {
					dp[i][l] = c
					arg[i][l] = pl
				}
			}
		}
	}
	end := rs[len(rs)-1].to
	bestL, bestCost := -1, math.Inf(1)
	for l := 1; l < NL; l++ {
		if math.IsInf(dp[len(rs)-1][l], 1) {
			continue
		}
		c := dp[len(rs)-1][l] + r.stackCost(end, l, 0)
		if c < bestCost {
			bestCost = c
			bestL = l
		}
	}
	if bestL < 0 {
		return nil, math.Inf(1)
	}

	// Reconstruct layer choices.
	layers := make([]int, len(rs))
	layers[len(rs)-1] = bestL
	for i := len(rs) - 1; i > 0; i-- {
		layers[i-1] = arg[i][layers[i]]
	}

	p := &path{}
	p.vias = append(p.vias, stackVias(junctions[0], 0, layers[0])...)
	for i, rn := range rs {
		p.wires = append(p.wires, runEdges(rn, layers[i])...)
		if i > 0 && layers[i] != layers[i-1] {
			p.vias = append(p.vias, stackVias(rn.from, layers[i-1], layers[i])...)
		}
	}
	p.vias = append(p.vias, stackVias(end, layers[len(rs)-1], 0)...)
	return p, bestCost
}
