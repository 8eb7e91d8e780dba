package global

import (
	"fmt"
	"math"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

// FuzzMazeGate checks the bounded maze search against a plain Dijkstra over
// the same lattice. It routes a fixture built from fuzzed routeDesign
// arguments, then runs five-byte ops (kind, then four operands): a wire or
// via demand write of up to ~64 tracks, which can overflow an edge (the
// fixture's edges hold 21), or a query of one GCell pair. For each pair,
// mazeRoute at routeTerminals' limit (the pattern cost less mazeGateTol
// relative) must return a path exactly when the Dijkstra's path prices
// below that limit; within 1e-12 relative of the limit either answer
// passes, since the two searches add the same prices in different orders.
// Every path mazeRoute returns, and the one it must return with no limit,
// connects (a, 0) to (b, 0) along lattice edges and prices within 1e-12
// relative of the Dijkstra's.
func FuzzMazeGate(f *testing.F) {
	// The congested RRR fixture, routed with the search under test: a pair
	// whose maze path wins by only ~0.002 (a path), then a pair whose maze
	// path undercuts the pattern cost by float rounding alone (none).
	f.Add(int64(15), uint8(75), uint16(300), []byte{
		2, 4, 0, 9, 7,
		2, 0, 0, 3, 0,
	})
	// No nets, so the state does not depend on the search under test: an
	// empty-grid pair, again a rounding-only win (none), a via write
	// elsewhere, then the same pair after its row is loaded on both
	// horizontal routing layers until a detour wins by ~0.11 (a path; less
	// than one UnitWire, so a bound that overestimates by a wire step or a
	// via fails here).
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
				dp := r.dijkstraRoute(a, b)
				if dp == nil {
					t.Fatalf("op %d: Dijkstra found no path %v→%v", i/5, a, b)
				}
				dcost := r.pathCost(dp)
				check := func(mp *path, limit float64) {
					if err := latticePathError(r, mp, a, b); err != nil {
						t.Fatalf("op %d: %v→%v under limit %v: %v", i/5, a, b, limit, err)
					}
					if mcost := r.pathCost(mp); math.Abs(mcost-dcost) > 1e-12*dcost {
						t.Fatalf("op %d: %v→%v: maze path costs %v, Dijkstra's %v", i/5, a, b, mcost, dcost)
					}
				}
				mp := r.mazeRoute(a, b, math.Inf(1))
				if mp == nil {
					t.Fatalf("op %d: unbounded maze found no path %v→%v", i/5, a, b)
				}
				check(mp, math.Inf(1))

				_, cost, _ := r.patternRoute(a, b)
				limit := cost * (1 - mazeGateTol)
				mp = r.mazeRoute(a, b, limit)
				if mp != nil {
					check(mp, limit)
				}
				if math.Abs(dcost-limit) <= 1e-12*limit {
					continue
				}
				if want := dcost < limit; (mp != nil) != want {
					t.Fatalf("op %d: %v→%v: maze returned a path: %v, Dijkstra's path costs %v against limit %v (pattern %v)",
						i/5, a, b, mp != nil, dcost, limit, cost)
				}
			}
		}
	})
}

// latticePathError reports why p is not a simple lattice path from (a, 0)
// to (b, 0), nil when it is: every wire is an edge along its layer's
// direction and every via joins two layers of the lattice, and the edges
// chain end to end, each inner node on exactly two of them.
func latticePathError(r *Router, p *path, a, b geom.Point) error {
	degree := map[geom.Point3]int{}
	adj := map[geom.Point3][]geom.Point3{}
	link := func(u, v geom.Point3) {
		degree[u]++
		degree[v]++
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, w := range p.wires {
		if !r.G.HasEdge(w.X, w.Y, w.L) {
			return fmt.Errorf("wire %v is not a lattice edge", w)
		}
		if r.G.Horizontal(w.L) {
			link(w, geom.Pt3(w.X+1, w.Y, w.L))
		} else {
			link(w, geom.Pt3(w.X, w.Y+1, w.L))
		}
	}
	for _, v := range p.vias {
		if v.L < 0 || v.L+1 >= r.G.NL || !r.G.InBounds(v.X, v.Y) {
			return fmt.Errorf("via %v is not a lattice edge", v)
		}
		link(v, geom.Pt3(v.X, v.Y, v.L+1))
	}
	src, dst := geom.Pt3(a.X, a.Y, 0), geom.Pt3(b.X, b.Y, 0)
	if src == dst {
		if len(degree) != 0 {
			return fmt.Errorf("%d wires and %d vias join a GCell to itself", len(p.wires), len(p.vias))
		}
		return nil
	}
	for n, d := range degree {
		want := 2
		if n == src || n == dst {
			want = 1
		}
		if d != want {
			return fmt.Errorf("node %v is on %d edges, want %d", n, d, want)
		}
	}
	seen := map[geom.Point3]bool{src: true}
	for stack := []geom.Point3{src}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	if !seen[dst] || len(seen) != len(degree) {
		return fmt.Errorf("edges do not chain from %v to %v", src, dst)
	}
	return nil
}

// dijkstraRoute finds the cheapest 3D path from (a, layer 0) to (b, layer 0)
// with Dijkstra. Returns nil when unreachable.
func (r *Router) dijkstraRoute(a, b geom.Point) *path {
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
		// caller's pattern route still produces a complete route, so
		// demand accounting stays consistent. The check is amortised
		// over 4096 pops to keep it off the hot path.
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
					r.dijkstraPlanar(h, it, x, y, l, x+1, y, x, y, visit)
				}
				if x > 0 {
					r.dijkstraPlanar(h, it, x, y, l, x-1, y, x-1, y, visit)
				}
			} else {
				if y+1 < r.G.NY {
					r.dijkstraPlanar(h, it, x, y, l, x, y+1, x, y, visit)
				}
				if y > 0 {
					r.dijkstraPlanar(h, it, x, y, l, x, y-1, x, y-1, visit)
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

// dijkstraPlanar relaxes the planar move from (x,y,l) to (nx,ny,l); the
// edge is identified by its leaving GCell (ex,ey).
func (r *Router) dijkstraPlanar(h *pq, it heapItem, x, y, l, nx, ny, ex, ey int, visit func(int32, float64, int32) bool) {
	c := r.G.WireEdgeCost(ex, ey, l)
	if math.IsInf(c, 1) {
		return
	}
	n := r.nodeID(nx, ny, l)
	if visit(n, it.cost+c, it.node) {
		h.push(heapItem{it.cost + c, n})
	}
}
