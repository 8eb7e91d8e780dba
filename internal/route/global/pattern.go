package global

import (
	"math"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// junctionSeq is one planar candidate path as a junction-point sequence
// (consecutive points axis-aligned). L and Z shapes never need more than
// four junctions, so the points live inline and candidate enumeration is
// allocation-free.
type junctionSeq struct {
	pts [4]geom.Point
	n   int
}

func (j *junctionSeq) points() []geom.Point { return j.pts[:j.n] }

// patternRoute connects GCells a and b with the cheapest L- or Z-shaped
// path, assigning each straight run to a routing layer by dynamic
// programming over junction layers. Both endpoints are connected down to
// the pin layer (metal1) by via stacks, which guarantees that all segments
// of a net meeting at a GCell are electrically connected through the shared
// stack. Returns the materialised path, its cost, and the worst projected
// congestion ratio along it; path is nil when no finite-cost candidate
// exists.
//
// Candidates are priced by patternCost and only the winner is
// materialised, so the losing candidates never allocate. Serial use only
// (it borrows the Router's pooled scratch once); the estimation path uses
// patternCost directly.
func (r *Router) patternRoute(a, b geom.Point) (*path, float64, float64) {
	s := r.getScratch()
	defer r.putScratch(s)
	cost, best := r.patternCost(a, b, s)
	if best < 0 {
		return nil, math.Inf(1), math.Inf(1)
	}
	p := r.layerPath(s.cands[best].points(), s)
	return p, cost, r.worstCongestion(p)
}

// patternCost is the minimum layer-assigned cost over a and b's candidate
// set, left in s.cands, and the index of the first candidate reaching it;
// +Inf and -1 when none is realisable.
func (r *Router) patternCost(a, b geom.Point, s *estScratch) (float64, int) {
	s.cands = r.candidateJunctions(s.cands[:0], a, b)
	cost, best := math.Inf(1), -1
	for i := range s.cands {
		if c, _ := r.layerCost(s.cands[i].points(), s); c < cost {
			cost, best = c, i
		}
	}
	return cost, best
}

// zSamples is the number of intermediate Z-bend positions tried per axis
// during pattern routing (in addition to the two L shapes).
const zSamples = 3

// candidateJunctions appends the planar candidate paths between a and b to
// dst: the straight/L shapes plus sampled Z shapes.
func (r *Router) candidateJunctions(dst []junctionSeq, a, b geom.Point) []junctionSeq {
	if a == b {
		return append(dst, junctionSeq{pts: [4]geom.Point{a}, n: 1})
	}
	if a.X == b.X || a.Y == b.Y {
		return append(dst, junctionSeq{pts: [4]geom.Point{a, b}, n: 2})
	}
	// Two L shapes.
	dst = append(dst,
		junctionSeq{pts: [4]geom.Point{a, geom.Pt(b.X, a.Y), b}, n: 3},
		junctionSeq{pts: [4]geom.Point{a, geom.Pt(a.X, b.Y), b}, n: 3},
	)
	// Z shapes with sampled interior bends.
	for s := 1; s <= zSamples; s++ {
		fx := a.X + (b.X-a.X)*s/(zSamples+1)
		if fx != a.X && fx != b.X {
			dst = append(dst, junctionSeq{pts: [4]geom.Point{a, geom.Pt(fx, a.Y), geom.Pt(fx, b.Y), b}, n: 4})
		}
		fy := a.Y + (b.Y-a.Y)*s/(zSamples+1)
		if fy != a.Y && fy != b.Y {
			dst = append(dst, junctionSeq{pts: [4]geom.Point{a, geom.Pt(a.X, fy), geom.Pt(b.X, fy), b}, n: 4})
		}
	}
	return dst
}

// run is one straight stretch of a planar path.
type run struct {
	dir  tech.Dir
	from geom.Point // start GCell
	to   geom.Point // end GCell (axis-aligned with from)
}

// runsOf appends junctions' straight runs to dst.
func runsOf(dst []run, junctions []geom.Point) []run {
	for i := 1; i < len(junctions); i++ {
		p, q := junctions[i-1], junctions[i]
		if p == q {
			continue
		}
		d := tech.Horizontal
		if p.X == q.X {
			d = tech.Vertical
		}
		dst = append(dst, run{dir: d, from: p, to: q})
	}
	return dst
}

// runEdges lists the planar edges (leaving-GCell convention) along a run on
// layer l.
func runEdges(rn run, l int) []geom.Point3 {
	var out []geom.Point3
	if rn.dir == tech.Horizontal {
		x0, x1 := rn.from.X, rn.to.X
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		for x := x0; x < x1; x++ {
			out = append(out, geom.Pt3(x, rn.from.Y, l))
		}
	} else {
		y0, y1 := rn.from.Y, rn.to.Y
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		for y := y0; y < y1; y++ {
			out = append(out, geom.Pt3(rn.from.X, y, l))
		}
	}
	return out
}

// runCost prices a run on layer l; +Inf when the layer's direction does not
// match or an edge is missing. Edges are walked in leaving-GCell order
// without materialising them.
func (r *Router) runCost(rn run, l int) float64 {
	if l <= 0 || l >= r.G.NL || r.G.Horizontal(l) != (rn.dir == tech.Horizontal) {
		return math.Inf(1)
	}
	cost := 0.0
	if rn.dir == tech.Horizontal {
		x0, x1 := rn.from.X, rn.to.X
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		for x := x0; x < x1; x++ {
			c := r.G.WireEdgeCost(x, rn.from.Y, l)
			if math.IsInf(c, 1) {
				return c
			}
			cost += c
		}
	} else {
		y0, y1 := rn.from.Y, rn.to.Y
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		for y := y0; y < y1; y++ {
			c := r.G.WireEdgeCost(rn.from.X, y, l)
			if math.IsInf(c, 1) {
				return c
			}
			cost += c
		}
	}
	return cost
}

// stackCost prices the via stack between layers l1 and l2 at GCell p.
func (r *Router) stackCost(p geom.Point, l1, l2 int) float64 {
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	cost := 0.0
	for l := l1; l < l2; l++ {
		c := r.G.ViaEdgeCost(p.X, p.Y, l)
		if math.IsInf(c, 1) {
			return c
		}
		cost += c
	}
	return cost
}

func stackVias(p geom.Point, l1, l2 int) []geom.Point3 {
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	var out []geom.Point3
	for l := l1; l < l2; l++ {
		out = append(out, geom.Pt3(p.X, p.Y, l))
	}
	return out
}

// maxRuns bounds the straight runs of a candidate path: L and Z shapes
// have at most four junctions.
const maxRuns = len(junctionSeq{}.pts) - 1

// layerCost runs the junction-layer DP over a planar candidate path (at
// most maxRuns runs) and returns the best realisable cost and the layer of
// its last run, -1 when none is realisable (0 for a single GCell, which
// needs no wires and no vias). The DP rows roll in the scratch, and each
// run's best predecessor layer per layer goes to s.arg, for layerPath.
func (r *Router) layerCost(junctions []geom.Point, s *estScratch) (float64, int) {
	s.runs = runsOf(s.runs[:0], junctions)
	rs := s.runs
	NL := r.G.NL
	if len(rs) == 0 {
		return 0, 0
	}
	prev, curr := s.dpa, s.dpb
	start := junctions[0]
	for l := 1; l < NL; l++ {
		prev[l] = math.Inf(1)
		rc := r.runCost(rs[0], l)
		if math.IsInf(rc, 1) {
			continue
		}
		prev[l] = r.stackCost(start, 0, l) + rc
	}
	for i := 1; i < len(rs); i++ {
		junction := rs[i].from
		for l := 1; l < NL; l++ {
			curr[l] = math.Inf(1)
			rc := r.runCost(rs[i], l)
			if math.IsInf(rc, 1) {
				continue
			}
			for pl := 1; pl < NL; pl++ {
				if math.IsInf(prev[pl], 1) {
					continue
				}
				c := prev[pl] + r.stackCost(junction, pl, l) + rc
				if c < curr[l] {
					curr[l] = c
					s.arg[i*NL+l] = pl
				}
			}
		}
		prev, curr = curr, prev
	}
	end := rs[len(rs)-1].to
	best, bestL := math.Inf(1), -1
	for l := 1; l < NL; l++ {
		if math.IsInf(prev[l], 1) {
			continue
		}
		c := prev[l] + r.stackCost(end, l, 0)
		if c < best {
			best, bestL = c, l
		}
	}
	return best, bestL
}

// layerPath materialises layerCost's best realisation of a planar candidate
// path, nil when none is realisable. Endpoints connect to layer 0.
func (r *Router) layerPath(junctions []geom.Point, s *estScratch) *path {
	_, last := r.layerCost(junctions, s)
	if last < 0 {
		return nil
	}
	rs := s.runs
	p := &path{}
	if len(rs) == 0 {
		// Single-GCell connection: the pin stack is shared with whatever
		// else reaches this GCell.
		return p
	}
	var layers [maxRuns]int
	layers[len(rs)-1] = last
	for i := len(rs) - 1; i > 0; i-- {
		layers[i-1] = s.arg[i*r.G.NL+layers[i]]
	}
	p.vias = append(p.vias, stackVias(junctions[0], 0, layers[0])...)
	for i, rn := range rs {
		p.wires = append(p.wires, runEdges(rn, layers[i])...)
		if i > 0 && layers[i] != layers[i-1] {
			p.vias = append(p.vias, stackVias(rn.from, layers[i-1], layers[i])...)
		}
	}
	p.vias = append(p.vias, stackVias(rs[len(rs)-1].to, layers[len(rs)-1], 0)...)
	return p
}
