// Package global is the CUGR-substitute 3D global router. A net is routed
// by building a FLUTE-style Steiner topology over its pins' GCells
// (internal/steiner), decomposing it into two-pin segments, and routing each
// segment with 3D pattern routing: candidate L- and Z-shaped planar paths
// whose straight runs are assigned to layers by dynamic programming over the
// junction layers, with via-stack costs between runs and down to the pin
// layer at both ends. A segment whose pattern route would overflow an edge
// is re-routed by a 3D Dijkstra maze over the full lattice, but only when a
// bounded A* first proves that a strictly cheaper lattice path exists. A
// negotiated rip-up & reroute loop clears residual overflow.
//
// The same pattern-routing machinery, without committing demand, implements
// the paper's "fast 3D pattern route" used by Algorithm 3 to estimate the
// cost of hypothetical cell positions.
package global

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/steiner"
	"github.com/crp-eda/crp/internal/tech"
)

// Route is one net's committed global route: a set of planar GCell edges
// and via edges (set semantics — each edge consumes one track or via of
// demand regardless of how many tree segments pass through it).
type Route struct {
	NetID int32
	// Wires lists planar edges as Point3{x,y,l}: the preferred-direction
	// edge leaving GCell (x,y) on layer l.
	Wires []geom.Point3
	// Vias lists via edges as Point3{x,y,l}: a via between layers l and
	// l+1 at GCell (x,y).
	Vias []geom.Point3
}

// Empty reports whether the route uses no routing resources (single-GCell,
// single-layer nets).
func (r *Route) Empty() bool { return len(r.Wires) == 0 && len(r.Vias) == 0 }

// Config tunes the router.
type Config struct {
	// RRRIterations is the number of rip-up & reroute passes after the
	// initial routing.
	RRRIterations int
	// ZSamples is the number of intermediate Z-bend positions tried per
	// axis during pattern routing (in addition to the two L shapes).
	ZSamples int
	// FinalReroutePasses re-routes every net once per pass at settled
	// congestion prices after RRR, the way CUGR's later phases revisit
	// early nets that were routed against an empty (mispriced) grid.
	FinalReroutePasses int
	// DisableEstimateCache turns off the epoch-validated estimation caches
	// (two-pin segment costs, Steiner topologies, per-net committed costs).
	// Results are bit-identical either way; only the differential referees
	// set it (TestEstimateCacheMatchesFresh here and crp's cold/warm/uncached
	// determinism test). It does not cover the grid's edge prices, which
	// have a single path (see grid.Grid).
	DisableEstimateCache bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{RRRIterations: 3, ZSamples: 3, FinalReroutePasses: 1}
}

// Router holds routing state for one design.
type Router struct {
	D   *db.Design
	G   *grid.Grid
	Cfg Config

	// Routes is indexed by net ID; nil entries are unrouted nets.
	Routes []*Route

	// Scratch buffers for the maze router, reused across calls.
	dist    []float64
	prev    []int32
	seen    []uint32
	settled []uint32
	gen     uint32
	heap    pq

	// bld accumulates path segments while committing a net (serial paths
	// only, like the maze scratch above).
	bld builder

	// Estimation fast path: pooled per-call scratch plus the sharded,
	// epoch-validated caches (see estcache.go). Safe under concurrent
	// EstimateTerminalCost calls from CR&P's worker pool.
	scratch sync.Pool
	segs    segCache
	trees   treeCache

	// Committed-route cost memo for NetCost (serial paths): value is valid
	// while netCostEpoch[id] == G.Epoch()+1; 0 marks an invalid entry.
	netCost      []float64
	netCostEpoch []uint64

	// ctx is the cancellation context of the RouteAllCtx call in flight
	// (nil outside one). Cancellation is cooperative and only observed at
	// points where stopping leaves the grid consistent: between nets in the
	// scheduling loops and between RRR passes, plus a periodic check inside
	// the maze search (which simply reports "unreachable", letting the
	// cheap pattern/forced-L fallback finish the net).
	ctx context.Context
}

// New creates a router over an existing design and grid.
func New(d *db.Design, g *grid.Grid, cfg Config) *Router {
	if cfg.ZSamples < 0 {
		cfg.ZSamples = 0
	}
	n := g.NX * g.NY * g.NL
	r := &Router{
		D:            d,
		G:            g,
		Cfg:          cfg,
		Routes:       make([]*Route, len(d.Nets)),
		dist:         make([]float64, n),
		prev:         make([]int32, n),
		seen:         make([]uint32, n),
		settled:      make([]uint32, n),
		netCost:      make([]float64, len(d.Nets)),
		netCostEpoch: make([]uint64, len(d.Nets)),
	}
	r.scratch.New = func() any { return &estScratch{} }
	return r
}

// AdoptRoutes installs a previously committed route set — e.g. restored
// from a checkpoint — without touching grid demand: the caller restores the
// matching demand separately (grid.RestoreDemand), because committed-route
// demand alone does not reconstruct the construction-time seeding the grid
// carried when these routes were originally committed. Any prior routes and
// cost memos are discarded.
func (r *Router) AdoptRoutes(routes []*Route) error {
	if len(routes) != len(r.D.Nets) {
		return fmt.Errorf("global: adopting %d routes for %d nets", len(routes), len(r.D.Nets))
	}
	for id, rt := range routes {
		if rt != nil && rt.NetID != int32(id) {
			return fmt.Errorf("global: route at slot %d belongs to net %d", id, rt.NetID)
		}
	}
	copy(r.Routes, routes)
	for i := range r.netCostEpoch {
		r.netCostEpoch[i] = 0
	}
	return nil
}

// Stats summarises a routing run.
type Stats struct {
	// RoutedNets counts the nets of degree >= 2 the initial pass routed.
	RoutedNets int
	// PatternRoutes counts initial-pass nets built from pattern routes
	// alone (RoutedNets − MazeRoutes).
	PatternRoutes int
	// MazeRoutes counts initial-pass nets that took at least one maze
	// path: a segment no pattern realises, or one whose maze path is
	// cheaper than its pattern route by more than mazeGateTol relative.
	// Nets re-routed by RRR or the final pass are not counted.
	MazeRoutes int
	// RRRPasses counts the rip-up & reroute passes that ran.
	RRRPasses int
	// Overflow is the grid's overflow when the run ends.
	Overflow grid.OverflowStats
	// Cancelled reports that the run's context expired before all phases
	// completed; already-committed routes are valid, later nets may be
	// unrouted and the RRR/final passes may have been cut short.
	Cancelled bool
}

// cancelled reports whether the in-flight RouteAllCtx context has expired.
func (r *Router) cancelled() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// RouteAll routes every net with no deadline (see RouteAllCtx).
func (r *Router) RouteAll() Stats { return r.RouteAllCtx(context.Background()) }

// RouteAllCtx performs the initial global routing of every net followed by
// rip-up & reroute passes, committing demand as it goes. Nets are routed in
// increasing HPWL order so short local nets claim their natural resources
// before long nets start detouring around them. Cancellation stops the run
// at the next net (or pass) boundary with Stats.Cancelled set; the grid is
// always left consistent with the committed routes.
func (r *Router) RouteAllCtx(ctx context.Context) Stats {
	r.ctx = ctx
	defer func() { r.ctx = nil }()
	var st Stats
	order := make([]int32, 0, len(r.D.Nets))
	for _, n := range r.D.Nets {
		if n.Degree() >= 2 {
			order = append(order, n.ID)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := r.D.HPWL(r.D.Nets[order[a]]), r.D.HPWL(r.D.Nets[order[b]])
		if ha != hb {
			return ha < hb
		}
		return order[a] < order[b]
	})
	for _, id := range order {
		if r.cancelled() {
			st.Cancelled = true
			break
		}
		rt, usedMaze := r.routeNet(id)
		r.Commit(rt)
		st.RoutedNets++
		if usedMaze {
			st.MazeRoutes++
		} else {
			st.PatternRoutes++
		}
	}
	st.RRRPasses = r.ripUpAndReroute()
	r.finalReroute(order)
	st.Cancelled = st.Cancelled || r.cancelled()
	st.Overflow = r.G.Overflow()
	return st
}

// finalReroute revisits every net at settled prices: nets routed early saw
// an empty grid and may sit on edges that later became expensive. Each net
// is ripped up and re-routed (worst current cost first); the new route is
// kept only if it is not more expensive, so the pass can only improve the
// solution.
func (r *Router) finalReroute(order []int32) {
	for pass := 0; pass < r.Cfg.FinalReroutePasses; pass++ {
		if r.cancelled() {
			return
		}
		byCost := append([]int32(nil), order...)
		sort.Slice(byCost, func(a, b int) bool {
			ca, cb := r.NetCost(byCost[a]), r.NetCost(byCost[b])
			if ca != cb {
				return ca > cb
			}
			return byCost[a] < byCost[b]
		})
		for _, id := range byCost {
			if r.cancelled() {
				return // each net's rip-up/re-commit is atomic; stopping here is safe
			}
			old := r.RipUp(id)
			if old == nil {
				continue
			}
			oldCost := r.priceRoute(old)
			rt, _ := r.routeNet(id)
			if rt != nil && r.priceRoute(rt) <= oldCost {
				r.Commit(rt)
			} else {
				r.Commit(old)
			}
		}
	}
}

// priceRoute evaluates a (not currently committed) route at current grid
// prices.
func (r *Router) priceRoute(rt *Route) float64 {
	cost := 0.0
	for _, w := range rt.Wires {
		cost += r.G.WireEdgeCost(w.X, w.Y, w.L)
	}
	for _, v := range rt.Vias {
		cost += r.G.ViaEdgeCost(v.X, v.Y, v.L)
	}
	return cost
}

// RerouteNet rips up (if routed) and re-routes one net, committing the new
// route. CR&P's update-database step calls this for every net touching a
// moved cell.
func (r *Router) RerouteNet(id int32) {
	r.RipUp(id)
	rt, _ := r.routeNet(id)
	r.Commit(rt)
}

// Commit adds the route's demand to the grid and records it.
func (r *Router) Commit(rt *Route) {
	if rt == nil {
		return
	}
	if r.Routes[rt.NetID] != nil {
		panic(fmt.Sprintf("global: net %d committed twice", rt.NetID))
	}
	for _, w := range rt.Wires {
		r.G.AddWire(w.X, w.Y, w.L, 1)
	}
	for _, v := range rt.Vias {
		r.G.AddVia(v.X, v.Y, v.L, 1)
	}
	r.Routes[rt.NetID] = rt
	// Demand mutations advanced the grid epoch, which lazily invalidates
	// every cost cache; a resource-free route leaves the epoch alone, so
	// this net's own memo must be dropped explicitly.
	r.netCostEpoch[rt.NetID] = 0
}

// RipUp removes a net's committed demand and returns the old route (nil if
// the net was unrouted).
func (r *Router) RipUp(id int32) *Route {
	rt := r.Routes[id]
	if rt == nil {
		return nil
	}
	for _, w := range rt.Wires {
		r.G.AddWire(w.X, w.Y, w.L, -1)
	}
	for _, v := range rt.Vias {
		r.G.AddVia(v.X, v.Y, v.L, -1)
	}
	r.Routes[id] = nil
	r.netCostEpoch[id] = 0
	return rt
}

// NetCost evaluates the committed route of a net at current grid prices
// (Eq. 10). Unrouted and resource-free nets cost zero. This is the cost
// CR&P's Algorithm 1 sorts cells by — it queries the same net once per
// incident cell, and the reroute schedulers sort by it, so the value is
// memoised per net until the grid epoch or the route changes. Serial use
// only (it shares the Router's serial scratch discipline).
func (r *Router) NetCost(id int32) float64 {
	rt := r.Routes[id]
	if rt == nil {
		return 0
	}
	// Epoch 0 could not collide with a valid stamp: stamps store epoch+1.
	stamp := r.G.Epoch() + 1
	if !r.Cfg.DisableEstimateCache && r.netCostEpoch[id] == stamp {
		return r.netCost[id]
	}
	cost := 0.0
	for _, w := range rt.Wires {
		cost += r.G.WireEdgeCost(w.X, w.Y, w.L)
	}
	for _, v := range rt.Vias {
		cost += r.G.ViaEdgeCost(v.X, v.Y, v.L)
	}
	r.netCost[id] = cost
	r.netCostEpoch[id] = stamp
	return cost
}

// TotalCost sums NetCost over all nets.
func (r *Router) TotalCost() float64 {
	total := 0.0
	for id := range r.Routes {
		total += r.NetCost(int32(id))
	}
	return total
}

// WirelengthDBU returns the total routed wirelength in DBU (each planar
// edge spans one GCell pitch in its direction).
func (r *Router) WirelengthDBU() int64 {
	var wl int64
	for _, rt := range r.Routes {
		if rt == nil {
			continue
		}
		wl += r.routeWireDBU(rt)
	}
	return wl
}

func (r *Router) routeWireDBU(rt *Route) int64 {
	var wl int64
	for _, w := range rt.Wires {
		if r.G.Tech.Layer(w.L).Dir == tech.Horizontal {
			wl += int64(r.G.CellW)
		} else {
			wl += int64(r.G.CellH)
		}
	}
	return wl
}

// ViaCount returns the total number of route vias.
func (r *Router) ViaCount() int64 {
	var n int64
	for _, rt := range r.Routes {
		if rt != nil {
			n += int64(len(rt.Vias))
		}
	}
	return n
}

// netTerminals returns the GCell coordinates (deduplicated) of the net's
// terminals at the current placement.
func (r *Router) netTerminals(id int32) []geom.Point {
	pts := r.D.NetPinPositions(r.D.Nets[id])
	return r.gcellsOf(pts)
}

func (r *Router) gcellsOf(pts []geom.Point) []geom.Point {
	return r.gcellsInto(make([]geom.Point, 0, len(pts)), pts)
}

// gcellsInto appends the first-occurrence-ordered, deduplicated GCells of
// pts to dst. Terminal counts are small (net degree), so a linear scan
// beats a map and allocates nothing.
func (r *Router) gcellsInto(dst []geom.Point, pts []geom.Point) []geom.Point {
	for _, p := range pts {
		x, y := r.G.GCellOf(p)
		gp := geom.Pt(x, y)
		dup := false
		for _, q := range dst {
			if q == gp {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, gp)
		}
	}
	return dst
}

// routeNet computes a route for the net at the current placement without
// committing it. The boolean reports whether the maze was used.
func (r *Router) routeNet(id int32) (*Route, bool) {
	return r.routeTerminals(id, r.netTerminals(id))
}

// routeTerminals routes a terminal set: Steiner topology, then pattern
// routing per segment. A segment no pattern realises goes to the maze
// directly; one whose pattern route would overflow an edge goes to the maze
// only when cheaperPathExists finds a path undercutting the pattern cost by
// more than mazeGateTol relative, and the maze's path replaces the pattern
// route when it prices lower. Serial use only (it reuses the Router's
// builder and maze scratch).
func (r *Router) routeTerminals(id int32, gcells []geom.Point) (*Route, bool) {
	b := &r.bld
	b.reset()
	if len(gcells) < 2 {
		return b.route(id), false
	}
	tree := steiner.Build(gcells)
	usedMaze := false
	for _, e := range tree.Edges {
		a, c := tree.Nodes[e[0]], tree.Nodes[e[1]]
		path, cost, worst := r.patternRoute(a, c)
		if path == nil || (worst > mazeOnOverflow && r.cheaperPathExists(a, c, cost*(1-mazeGateTol))) {
			if mp := r.mazeRoute(a, c); mp != nil {
				mcost := r.pathCost(mp)
				if path == nil || mcost < cost {
					path = mp
					usedMaze = true
				}
			}
		}
		if path == nil {
			// No finite path exists (should not happen on a connected
			// lattice); fall back to the direct L even if expensive.
			path = r.forcedL(a, c)
			if path == nil {
				continue
			}
		}
		b.add(path)
	}
	return b.route(id), usedMaze
}

// EstimateTerminalCost is the paper's fast 3D pattern route (Algorithm 3):
// it prices a hypothetical terminal set at current grid costs without
// committing anything. Only pattern routing is used, matching the paper.
//
// This is CR&P's ECC hot path, so it runs entirely on pooled scratch and
// the epoch-validated caches: the Steiner topology is memoised per ordered
// terminal-set key and every two-pin segment cost per GCell pair (see
// estcache.go). Safe for concurrent use.
//
// A segment no pattern can realise contributes +Inf, exactly as the
// pre-cache code did: the forced-L fallback prices the horizontal-first L,
// which is one of the candidates the pattern search already rejected as
// unrealisable, so the fallback could never produce a finite cost here.
func (r *Router) EstimateTerminalCost(pts []geom.Point) float64 {
	s := r.getScratch()
	defer r.putScratch(s)
	s.gcells = r.gcellsInto(s.gcells[:0], pts)
	if len(s.gcells) < 2 {
		return 0
	}
	tree := r.cachedSteiner(s.gcells, s)
	total := 0.0
	for _, e := range tree.Edges {
		a, c := tree.Nodes[e[0]], tree.Nodes[e[1]]
		total += r.segmentEstimate(a, c, s)
	}
	return total
}

// EstimateLowerBound bounds EstimateTerminalCost from below for every
// terminal set that contains pts, at any grid demand. Over the k distinct
// GCells of pts it is
//
//	UnitWire·(bounding-box width + height) + 2·UnitVia·(k − 1).
//
// Eq. 10's penalty is never negative, so every planar edge costs at least
// UnitWire and every via at least UnitVia. A pattern segment between
// distinct GCells is a monotone path that climbs from the pin layer and
// returns to it (layerCost's two end stacks); a Steiner tree over k distinct
// GCells has at least k − 1 such segments, and together they cover the
// bounding box. The relative 1e-12 shave keeps the bound below the float sum
// for any UnitWire/UnitVia; with the defaults (0.5/2.0) every term is exact.
func (r *Router) EstimateLowerBound(pts []geom.Point) float64 {
	s := r.getScratch()
	defer r.putScratch(s)
	s.gcells = r.gcellsInto(s.gcells[:0], pts)
	k := len(s.gcells)
	if k < 2 {
		return 0
	}
	p := r.G.Params
	lb := p.UnitWire*float64(steiner.HPWL(s.gcells)) + 2*p.UnitVia*float64(k-1)
	return lb * (1 - 1e-12)
}

// builder accumulates path segments into a deduplicated route. The append
// buffers persist on the Router between nets; route() sorts, dedups, and
// copies out exact-size slices.
type builder struct {
	wires []geom.Point3
	vias  []geom.Point3
}

// path is a routed two-pin connection.
type path struct {
	wires []geom.Point3
	vias  []geom.Point3
}

func (b *builder) reset() {
	b.wires = b.wires[:0]
	b.vias = b.vias[:0]
}

func (b *builder) add(p *path) {
	b.wires = append(b.wires, p.wires...)
	b.vias = append(b.vias, p.vias...)
}

func (b *builder) route(id int32) *Route {
	return &Route{NetID: id, Wires: dedupPoint3s(b.wires), Vias: dedupPoint3s(b.vias)}
}

// dedupPoint3s sorts ps in place and returns a fresh slice of the unique
// elements (nil when empty — Route fields stay nil for resource-free nets,
// as the map-based builder produced).
func dedupPoint3s(ps []geom.Point3) []geom.Point3 {
	if len(ps) == 0 {
		return nil
	}
	sortPoint3s(ps)
	out := make([]geom.Point3, 0, len(ps))
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func sortPoint3s(ps []geom.Point3) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].L != ps[b].L {
			return ps[a].L < ps[b].L
		}
		if ps[a].Y != ps[b].Y {
			return ps[a].Y < ps[b].Y
		}
		return ps[a].X < ps[b].X
	})
}

// pathCost prices a path at current grid costs.
func (r *Router) pathCost(p *path) float64 {
	c := 0.0
	for _, w := range p.wires {
		c += r.G.WireEdgeCost(w.X, w.Y, w.L)
	}
	for _, v := range p.vias {
		c += r.G.ViaEdgeCost(v.X, v.Y, v.L)
	}
	return c
}

// worstCongestion returns the maximum demand/capacity ratio over the path's
// planar edges (as if the path were committed: +1 track).
func (r *Router) worstCongestion(p *path) float64 {
	worst := 0.0
	for _, w := range p.wires {
		cap := r.G.Capacity(w.X, w.Y, w.L)
		if cap <= 0 {
			return math.Inf(1)
		}
		worst = math.Max(worst, (r.G.Demand(w.X, w.Y, w.L)+1)/cap)
	}
	return worst
}
