package global

import (
	"math"
	"sort"

	"github.com/crp-eda/crp/internal/geom"
)

// The 3D maze router: Dijkstra over the full GCell lattice with the Eq. 10
// edge costs. Pattern routing handles the overwhelming majority of
// segments; the maze is the escape hatch for congested regions, where the
// negotiated penalty makes detours around hot spots cheaper than pushing
// through them.
//
// Most segments whose pattern route crosses an overflowed edge have no
// cheaper lattice path, so the Dijkstra is gated: cheaperPathExists, a
// bounded A* that only decides whether any path undercuts the pattern cost,
// runs first, and the Dijkstra — still the only code that picks a
// replacement path — runs only when it answers yes.

const (
	// mazeOnOverflow makes a segment a maze candidate when its pattern
	// route would push some planar edge's demand/capacity ratio above it.
	mazeOnOverflow = 1.0
	// mazeGateTol is the relative margin by which a lattice path must
	// undercut the pattern cost for the maze to run: a path that wins only
	// by float rounding leaves the pattern route in place.
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

// mazeRoute finds the cheapest 3D path from (a, layer 0) to (b, layer 0)
// with Dijkstra. Returns nil when unreachable.
func (r *Router) mazeRoute(a, b geom.Point) *path {
	src := r.nodeID(a.X, a.Y, 0)
	dst := r.nodeID(b.X, b.Y, 0)
	r.gen++
	gen := r.gen

	visit := func(n int32, c float64, from int32) bool {
		if r.seen[n] == gen && r.dist[n] <= c {
			return false
		}
		r.seen[n] = gen
		r.dist[n] = c
		r.prev[n] = from
		return true
	}

	h := &r.heap
	*h = (*h)[:0]
	visit(src, 0, -1)
	h.push(heapItem{0, src})

	pops := 0
	for len(*h) > 0 {
		// A cancelled context aborts the search as "unreachable": the
		// caller's pattern/forced-L fallback still produces a complete
		// route, so demand accounting stays consistent. The check is
		// amortised over 4096 pops to keep it off the hot path.
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
		x, y, l := r.nodeCoords(it.node)

		// Via moves.
		if l+1 < r.G.NL {
			c := r.G.ViaEdgeCost(x, y, l)
			if !math.IsInf(c, 1) {
				n := r.nodeID(x, y, l+1)
				if visit(n, it.cost+c, it.node) {
					h.push(heapItem{it.cost + c, n})
				}
			}
		}
		if l > 0 {
			c := r.G.ViaEdgeCost(x, y, l-1)
			if !math.IsInf(c, 1) {
				n := r.nodeID(x, y, l-1)
				if visit(n, it.cost+c, it.node) {
					h.push(heapItem{it.cost + c, n})
				}
			}
		}
		// Planar moves along the layer's preferred direction.
		if l > 0 {
			if r.G.Horizontal(l) {
				if x+1 < r.G.NX {
					r.tryPlanar(h, it, x, y, l, x+1, y, x, y, visit)
				}
				if x > 0 {
					r.tryPlanar(h, it, x, y, l, x-1, y, x-1, y, visit)
				}
			} else {
				if y+1 < r.G.NY {
					r.tryPlanar(h, it, x, y, l, x, y+1, x, y, visit)
				}
				if y > 0 {
					r.tryPlanar(h, it, x, y, l, x, y-1, x, y-1, visit)
				}
			}
		}
	}
	if r.seen[dst] != gen {
		return nil
	}

	// Walk predecessors, materialising edges.
	p := &path{}
	cur := dst
	for {
		from := r.prev[cur]
		if from < 0 {
			break
		}
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
		cur = from
	}
	return p
}

// cheaperPathExists reports whether some lattice path from (a, layer 0) to
// (b, layer 0) costs less than limit, over the moves mazeRoute makes. It is
// an A* search on the maze's scratch (dist, seen, settled, heap under a
// fresh gen) with the lower bound
//
//	h(x,y,l) = UnitWire·(|x−bx| + |y−by|) + UnitVia·v,
//
// v being the vias still needed to reach layer 0 at b: l, or 2 on layer 0
// anywhere but b. Eq. 10's penalty is never negative, so every wire costs at
// least UnitWire and every via at least UnitVia: h never overestimates and
// drops by at most the price of any move, so the first time a node settles
// its cost is final. Every push whose cost plus bound reaches limit is
// pruned, and the answer is yes as soon as b settles. A cancelled search
// answers no, which keeps the caller's pattern route, as a cancelled maze
// does.
func (r *Router) cheaperPathExists(a, b geom.Point, limit float64) bool {
	uw, uv := r.G.Params.UnitWire, r.G.Params.UnitVia
	r.gen++
	gen := r.gen
	h := &r.heap
	*h = (*h)[:0]
	relax := func(x, y, l int, c float64) {
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
		h.push(heapItem{f, n})
	}

	dst := r.nodeID(b.X, b.Y, 0)
	relax(a.X, a.Y, 0, 0)
	pops := 0
	for len(*h) > 0 {
		if pops++; pops&4095 == 0 && r.cancelled() {
			return false
		}
		it := h.pop()
		if r.settled[it.node] == gen {
			continue
		}
		r.settled[it.node] = gen
		if it.node == dst {
			return true
		}
		// The first pop of a node carries its smallest pushed cost, which
		// is the one dist holds.
		g := r.dist[it.node]
		x, y, l := r.nodeCoords(it.node)
		// Every move below exists, so its price is finite.
		if l+1 < r.G.NL {
			relax(x, y, l+1, g+r.G.ViaEdgeCost(x, y, l))
		}
		if l > 0 {
			relax(x, y, l-1, g+r.G.ViaEdgeCost(x, y, l-1))
			if r.G.Horizontal(l) {
				if x+1 < r.G.NX {
					relax(x+1, y, l, g+r.G.WireEdgeCost(x, y, l))
				}
				if x > 0 {
					relax(x-1, y, l, g+r.G.WireEdgeCost(x-1, y, l))
				}
			} else {
				if y+1 < r.G.NY {
					relax(x, y+1, l, g+r.G.WireEdgeCost(x, y, l))
				}
				if y > 0 {
					relax(x, y-1, l, g+r.G.WireEdgeCost(x, y-1, l))
				}
			}
		}
	}
	return false
}

// tryPlanar relaxes the planar move from (x,y,l) to (nx,ny,l); the edge is
// identified by its leaving GCell (ex,ey).
func (r *Router) tryPlanar(h *pq, it heapItem, x, y, l, nx, ny, ex, ey int, visit func(int32, float64, int32) bool) {
	c := r.G.WireEdgeCost(ex, ey, l)
	if math.IsInf(c, 1) {
		return
	}
	n := r.nodeID(nx, ny, l)
	if visit(n, it.cost+c, it.node) {
		h.push(heapItem{it.cost + c, n})
	}
}

// ripUpAndReroute clears residual overflow: every pass collects the nets
// crossing overflowed edges, rips them all up, and re-routes them worst-
// cost-first at post-rip-up prices (negotiated congestion). Returns the
// number of passes executed.
func (r *Router) ripUpAndReroute() int {
	passes := 0
	for iter := 0; iter < r.Cfg.RRRIterations; iter++ {
		// Cancellation is honoured only at pass boundaries: a pass rips up
		// every victim before re-routing any, so stopping mid-pass would
		// strand nets unrouted.
		if r.cancelled() {
			break
		}
		over := r.overflowedEdges()
		if len(over) == 0 {
			break
		}
		victims := r.netsUsing(over)
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

// overflowedEdges returns the set of planar edges with demand > capacity.
func (r *Router) overflowedEdges() map[geom.Point3]bool {
	out := map[geom.Point3]bool{}
	for l := 1; l < r.G.NL; l++ {
		for y := 0; y < r.G.NY; y++ {
			for x := 0; x < r.G.NX; x++ {
				if !r.G.HasEdge(x, y, l) {
					continue
				}
				if r.G.Demand(x, y, l) > r.G.Capacity(x, y, l) {
					out[geom.Pt3(x, y, l)] = true
				}
			}
		}
	}
	return out
}

// netsUsing returns the IDs of routed nets whose wires cross any edge in
// the set.
func (r *Router) netsUsing(edges map[geom.Point3]bool) []int32 {
	var out []int32
	for id, rt := range r.Routes {
		if rt == nil {
			continue
		}
		for _, w := range rt.Wires {
			if edges[w] {
				out = append(out, int32(id))
				break
			}
		}
	}
	return out
}
