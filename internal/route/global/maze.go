package global

import (
	"sort"

	"github.com/crp-eda/crp/internal/geom"
)

// The 3D maze router: a shortest-path search over the full GCell lattice
// with the Eq. 10 edge costs. Pattern routing handles the overwhelming
// majority of segments; the maze is the escape hatch for congested regions,
// where the negotiated penalty makes detours around hot spots cheaper than
// pushing through them. Most segments whose pattern route crosses an
// overflowed edge have no cheaper lattice path, so the search is bounded by
// the pattern cost and stops early, with no path, when nothing undercuts it.

const (
	// mazeOnOverflow makes a segment a maze candidate when its pattern
	// route would push some planar edge's demand/capacity ratio above it.
	mazeOnOverflow = 1.0
	// mazeGateTol is the relative margin by which a lattice path must
	// undercut the pattern cost for the maze to return it: a path that
	// wins only by float rounding leaves the pattern route in place.
	mazeGateTol = 1e-9
)

// nodeID packs (x, y, l) into a single index.
func (r *Router) nodeID(x, y, l int) int32 {
	return int32((l*r.G.NY+y)*r.G.NX + x)
}

func (r *Router) nodeCoords(id int32) (x, y, l int) {
	n := int(id)
	x = n % r.G.NX
	n /= r.G.NX
	y = n % r.G.NY
	l = n / r.G.NY
	return
}

// heapItem is a priority-queue entry.
type heapItem struct {
	cost float64
	node int32
}

type pq []heapItem

func (h *pq) push(it heapItem) {
	q := append(*h, it)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].cost <= q[i].cost {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *pq) pop() heapItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, rr, s := 2*i+1, 2*i+2, i
		if l < last && q[l].cost < q[s].cost {
			s = l
		}
		if rr < last && q[rr].cost < q[s].cost {
			s = rr
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}

// mazeRoute returns a cheapest lattice path from (a, layer 0) to (b, layer
// 0) when one costs less than limit, and nil otherwise. It is an A* search
// on the maze's scratch (dist, prev, seen, settled, heap under a fresh gen)
// with the lower bound
//
//	h(x,y,l) = UnitWire·(|x−bx| + |y−by|) + UnitVia·v,
//
// v being the vias still needed to reach layer 0 at b: l, or 2 on layer 0
// anywhere but b. Eq. 10's penalty is never negative, so every wire costs at
// least UnitWire and every via at least UnitVia: h never overestimates and
// drops by at most the price of any move, so the first time a node settles
// its cost is final. Every push whose cost plus bound reaches limit is
// pruned (with limit +Inf, only moves along missing edges), and when b
// settles the path is walked back through prev. A cancelled search returns
// nil, which keeps the caller's pattern route, so demand accounting stays
// consistent; the check is amortised over 4096 pops
// to keep it off the hot path.
func (r *Router) mazeRoute(a, b geom.Point, limit float64) *path {
	uw, uv := r.G.Params.UnitWire, r.G.Params.UnitVia
	r.gen++
	gen := r.gen
	h := &r.heap
	*h = (*h)[:0]
	relax := func(x, y, l int, c float64, from int32) {
		n := r.nodeID(x, y, l)
		if r.seen[n] == gen && r.dist[n] <= c {
			return
		}
		v := l
		if l == 0 && (x != b.X || y != b.Y) {
			v = 2
		}
		f := c + uw*float64(geom.Abs(x-b.X)+geom.Abs(y-b.Y)) + uv*float64(v)
		if f >= limit {
			return
		}
		r.seen[n] = gen
		r.dist[n] = c
		r.prev[n] = from
		h.push(heapItem{f, n})
	}

	dst := r.nodeID(b.X, b.Y, 0)
	relax(a.X, a.Y, 0, 0, -1)
	pops := 0
	for len(*h) > 0 {
		if pops++; pops&4095 == 0 && r.cancelled() {
			return nil
		}
		it := h.pop()
		if r.settled[it.node] == gen {
			continue
		}
		r.settled[it.node] = gen
		if it.node == dst {
			break
		}
		// The first pop of a node carries its smallest pushed cost, which
		// is the one dist holds.
		g := r.dist[it.node]
		x, y, l := r.nodeCoords(it.node)
		// Every move below exists, so its price is finite.
		if l+1 < r.G.NL {
			relax(x, y, l+1, g+r.G.ViaEdgeCost(x, y, l), it.node)
		}
		if l > 0 {
			relax(x, y, l-1, g+r.G.ViaEdgeCost(x, y, l-1), it.node)
			if r.G.Horizontal(l) {
				if x+1 < r.G.NX {
					relax(x+1, y, l, g+r.G.WireEdgeCost(x, y, l), it.node)
				}
				if x > 0 {
					relax(x-1, y, l, g+r.G.WireEdgeCost(x-1, y, l), it.node)
				}
			} else {
				if y+1 < r.G.NY {
					relax(x, y+1, l, g+r.G.WireEdgeCost(x, y, l), it.node)
				}
				if y > 0 {
					relax(x, y-1, l, g+r.G.WireEdgeCost(x, y-1, l), it.node)
				}
			}
		}
	}
	if r.settled[dst] != gen {
		return nil
	}

	// Walk predecessors, materialising edges.
	p := &path{}
	for cur := dst; r.prev[cur] >= 0; cur = r.prev[cur] {
		from := r.prev[cur]
		x1, y1, l1 := r.nodeCoords(cur)
		x0, y0, l0 := r.nodeCoords(from)
		switch {
		case l0 != l1:
			p.vias = append(p.vias, geom.Pt3(x0, y0, min(l0, l1)))
		case x0 != x1:
			p.wires = append(p.wires, geom.Pt3(min(x0, x1), y0, l0))
		default:
			p.wires = append(p.wires, geom.Pt3(x0, min(y0, y1), l0))
		}
	}
	return p
}

// ripUpAndReroute clears residual overflow: every pass collects the nets
// with a wire on an overflowed edge, rips them all up, and re-routes them
// worst-cost-first at post-rip-up prices (negotiated congestion). Returns
// the number of passes executed.
func (r *Router) ripUpAndReroute() int {
	passes := 0
	for iter := 0; iter < r.Cfg.RRRIterations; iter++ {
		// Cancellation is honoured only at pass boundaries: a pass rips up
		// every victim before re-routing any, so stopping mid-pass would
		// strand nets unrouted.
		if r.cancelled() {
			break
		}
		victims := r.overflowedNets()
		if len(victims) == 0 {
			break
		}
		passes++
		sort.Slice(victims, func(a, b int) bool {
			ca, cb := r.NetCost(victims[a]), r.NetCost(victims[b])
			if ca != cb {
				return ca > cb
			}
			return victims[a] < victims[b]
		})
		for _, id := range victims {
			r.RipUp(id)
		}
		for _, id := range victims {
			rt, _ := r.routeNet(id)
			r.Commit(rt)
		}
	}
	return passes
}

// overflowedNets returns the IDs of routed nets with a wire on an edge
// whose demand exceeds its capacity.
func (r *Router) overflowedNets() []int32 {
	var out []int32
	for id, rt := range r.Routes {
		if rt == nil {
			continue
		}
		for _, w := range rt.Wires {
			if r.G.Demand(w.X, w.Y, w.L) > r.G.Capacity(w.X, w.Y, w.L) {
				out = append(out, int32(id))
				break
			}
		}
	}
	return out
}
