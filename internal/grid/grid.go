// Package grid models the 3D global-routing graph G of the paper's Section
// III: the die is partitioned into GCells, and every pair of adjacent GCells
// on a routing layer is joined by an edge e carrying a capacity C_e and a
// demand D_e. Demand follows Eq. 9,
//
//	D_e = U_w(e) + U_f(e) + β·δ_e,   δ_e = sqrt((V_src + V_dst)/2),
//
// and edge cost follows Eq. 10,
//
//	cost_e = Unit_e · Dist(e) · (1 + penalty(e)),
//
// with a logistic congestion penalty. The paper prints the penalty as
// 1/(1+exp(S·(D_e−C_e))), which decreases with demand — an obvious sign typo
// (its own prose says larger S causes "faster overflow"). We implement the
// intended increasing form 1/(1+exp(S·(C_e−D_e))).
package grid

import (
	"fmt"
	"math"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// Params collects the tunables of the demand/cost model with the paper's
// values as defaults (see DefaultParams).
type Params struct {
	// Slope is S in the logistic penalty; larger values harden overflow.
	Slope float64
	// UnitWire and UnitVia are the Unit_e weights of Eq. 10. The ISPD-2018
	// evaluation weights a unit of wire 0.5 and a via 2.0, which the paper
	// notes makes vias 4x as expensive — the root of CR&P's via focus.
	UnitWire float64
	UnitVia  float64
}

// DefaultParams returns the paper's parameter values.
func DefaultParams() Params {
	return Params{
		Slope:    1.0,
		UnitWire: 0.5,
		UnitVia:  2.0,
	}
}

// Grid is the 3D GCell graph. Edge convention: on a horizontal layer, edge
// (x,y) joins GCell (x,y) to (x+1,y); on a vertical layer it joins (x,y) to
// (x,y+1). Edges are stored in dense per-layer arrays indexed x + y*NX.
type Grid struct {
	Tech *tech.Tech
	// Params is read-only after New: the price arrays were evaluated with
	// it.
	Params Params

	NX, NY, NL int
	CellW      int // GCell width, DBU
	CellH      int // GCell height, DBU
	Origin     geom.Point

	cap   [][]float64 // [layer][x+y*NX] edge capacity
	wire  [][]float64 // U_w wire usage
	fixed [][]float64 // U_f fixed usage
	vias  [][]float64 // [layer][gcell] vias between layer and layer+1 (len NL-1)
	horiz []bool      // [layer] preferred direction is horizontal

	// The Eq. 10 prices, kept current by every demand write (see
	// refreshEdge): pen is the logistic penalty of the planar edge leaving
	// each GCell (1 where no edge leaves it), viaPen the planar penalty each
	// GCell/layer node contributes to a via (see nodePenalty). Both are
	// [layer][x+y*NX] over all NL layers.
	pen    [][]float64
	viaPen [][]float64

	// epoch counts demand mutations (AddWire/AddVia). Everything that
	// feeds Eq. 9/10 — and therefore every edge cost — is frozen while the
	// epoch is unchanged, so cost caches key their validity on it.
	epoch uint64

	// journal, when attached, records every demand mutation (see Journal).
	journal *Journal
}

// Epoch returns the demand epoch: it advances on every AddWire/AddVia, so
// any cost computed at epoch E stays valid exactly as long as Epoch() == E.
// Seeding during New (fixed usage, pin vias) happens before the grid is
// shared, so the initial epoch value is immaterial to cache correctness.
func (g *Grid) Epoch() uint64 { return g.epoch }

// rowsPerGCell sets the GCell height in placement rows; GCells are
// square-ish, the width is the same DBU extent rounded to sites.
const rowsPerGCell = 3

// New builds the grid for a design: sizes the GCell lattice, derives edge
// capacities from track counts, seeds fixed usage from obstacles, and seeds
// via counts from pin density.
func New(d *db.Design, p Params) *Grid {
	t := d.Tech
	cellH := rowsPerGCell * t.Site.Height
	cellW := geom.SnapNearest(cellH, t.Site.Width)
	if cellW <= 0 {
		cellW = t.Site.Width
	}
	nx := (d.Die.W() + cellW - 1) / cellW
	ny := (d.Die.H() + cellH - 1) / cellH
	nx = max(nx, 1)
	ny = max(ny, 1)
	g := &Grid{
		Tech:   t,
		Params: p,
		NX:     nx,
		NY:     ny,
		NL:     t.NumLayers(),
		CellW:  cellW,
		CellH:  cellH,
		Origin: d.Die.Lo,
	}
	n := nx * ny
	g.cap = make([][]float64, g.NL)
	g.wire = make([][]float64, g.NL)
	g.fixed = make([][]float64, g.NL)
	g.vias = make([][]float64, g.NL-1)
	g.horiz = make([]bool, g.NL)
	g.pen = make([][]float64, g.NL)
	g.viaPen = make([][]float64, g.NL)
	for l := 0; l < g.NL; l++ {
		g.cap[l] = make([]float64, n)
		g.wire[l] = make([]float64, n)
		g.fixed[l] = make([]float64, n)
		if l < g.NL-1 {
			g.vias[l] = make([]float64, n)
		}
		g.horiz[l] = t.Layer(l).Dir == tech.Horizontal
		g.pen[l] = make([]float64, n)
		g.viaPen[l] = make([]float64, n)
		g.initCapacity(l)
	}
	g.seedFixedFromObstacles(d)
	g.seedViasFromPins(d)
	g.fillPrices()
	return g
}

// initCapacity fills layer l's edge capacities with the number of preferred-
// direction tracks crossing each GCell boundary. Layer 0 (metal1) is
// reserved for pin shapes in this flow — as in the ISPD-2018 designs, where
// M1 routing is effectively unavailable — so its capacity is zero.
func (g *Grid) initCapacity(l int) {
	if l == 0 {
		return
	}
	pitch := g.Tech.Layer(l).Pitch
	var tracks int
	if g.horiz[l] {
		tracks = g.CellH / pitch
	} else {
		tracks = g.CellW / pitch
	}
	for i := range g.cap[l] {
		g.cap[l][i] = float64(tracks)
	}
	// Boundary edges that would leave the lattice get zero capacity.
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if !g.HasEdge(x, y, l) {
				g.cap[l][g.idx(x, y)] = 0
			}
		}
	}
}

// seedFixedFromObstacles converts each obstacle's coverage fraction of a
// GCell into fixed usage U_f on the obstacle's blocked layers.
func (g *Grid) seedFixedFromObstacles(d *db.Design) {
	for _, o := range d.Obs {
		for _, l := range o.Layers {
			if l <= 0 || l >= g.NL {
				continue
			}
			g.addAreaUsage(l, o.Rect)
		}
	}
}

// addAreaUsage adds capacity-proportional fixed usage on layer l for every
// GCell edge whose GCell overlaps r.
func (g *Grid) addAreaUsage(l int, r geom.Rect) {
	x0, y0 := g.GCellOf(r.Lo)
	x1, y1 := g.GCellOf(geom.Pt(r.Hi.X-1, r.Hi.Y-1))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			cellRect := g.GCellRect(x, y)
			frac := float64(cellRect.Intersect(r).Area()) / float64(cellRect.Area())
			i := g.idx(x, y)
			g.fixed[l][i] += frac * g.cap[l][i]
		}
	}
}

// pinViaWeight is the via-count seed contributed by each cell pin in a
// GCell (pins need access vias in detailed routing, so pin-dense GCells
// must look via-crowded to Eq. 9 before any routing exists).
const pinViaWeight = 1.0

// seedViasFromPins adds pinViaWeight to the metal1→metal2 via count of each
// pin's GCell: every pin will need an access via stack in detailed routing.
func (g *Grid) seedViasFromPins(d *db.Design) {
	if g.NL < 2 {
		return
	}
	for _, n := range d.Nets {
		for _, pr := range n.Pins {
			c := d.Cells[pr.Cell]
			p := d.PinPosition(c, pr.Pin)
			x, y := g.GCellOf(p)
			g.vias[0][g.idx(x, y)] += pinViaWeight
		}
		for _, io := range n.IOs {
			x, y := g.GCellOf(io.Pos)
			g.vias[0][g.idx(x, y)] += pinViaWeight
		}
	}
}

func (g *Grid) idx(x, y int) int { return x + y*g.NX }

// InBounds reports whether (x,y) is a valid GCell coordinate.
func (g *Grid) InBounds(x, y int) bool {
	return x >= 0 && x < g.NX && y >= 0 && y < g.NY
}

// GCellOf maps a DBU point to its GCell coordinates, clamping to the lattice.
func (g *Grid) GCellOf(p geom.Point) (int, int) {
	x := (p.X - g.Origin.X) / g.CellW
	y := (p.Y - g.Origin.Y) / g.CellH
	x = geom.Iv(0, g.NX).Clamp(x)
	y = geom.Iv(0, g.NY).Clamp(y)
	return x, y
}

// GCellRect returns the DBU extent of GCell (x,y).
func (g *Grid) GCellRect(x, y int) geom.Rect {
	lo := geom.Pt(g.Origin.X+x*g.CellW, g.Origin.Y+y*g.CellH)
	return geom.Rect{Lo: lo, Hi: lo.Add(geom.Pt(g.CellW, g.CellH))}
}

// Center returns the DBU center of GCell (x,y).
func (g *Grid) Center(x, y int) geom.Point { return g.GCellRect(x, y).Center() }

// Horizontal reports whether layer l's preferred direction is horizontal.
func (g *Grid) Horizontal(l int) bool { return g.horiz[l] }

// HasEdge reports whether the preferred-direction edge leaving GCell (x,y)
// on layer l exists (stays inside the lattice and the layer is routable).
func (g *Grid) HasEdge(x, y, l int) bool {
	if l <= 0 || l >= g.NL || !g.InBounds(x, y) {
		return false
	}
	if g.horiz[l] {
		return x+1 < g.NX
	}
	return y+1 < g.NY
}

// Capacity returns C_e of the edge leaving (x,y) on layer l.
func (g *Grid) Capacity(x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return 0
	}
	return g.cap[l][g.idx(x, y)]
}

// WireUsage returns U_w of the edge.
func (g *Grid) WireUsage(x, y, l int) float64 { return g.wire[l][g.idx(x, y)] }

// FixedUsage returns U_f of the edge.
func (g *Grid) FixedUsage(x, y, l int) float64 { return g.fixed[l][g.idx(x, y)] }

// AddWire adjusts the wire usage of the edge leaving (x,y) on layer l.
// Negative deltas rip up previously committed usage.
func (g *Grid) AddWire(x, y, l int, delta float64) {
	i := g.idx(x, y)
	g.epoch++
	if g.journal != nil {
		k := EdgeKey{L: int32(l), I: int32(i)}
		g.journal.Wire[k] += delta
		g.journal.Mutations++
	}
	g.wire[l][i] += delta
	if g.wire[l][i] < 0 {
		// Rip-up must never exceed what was committed; clamping hides an
		// accounting bug, so fail loudly.
		panic(fmt.Sprintf("grid: wire usage of edge (%d,%d,l%d) went negative", x, y, l))
	}
	g.refreshEdge(x, y, l)
}

// ViaCount returns the number of vias between layers l and l+1 at GCell (x,y).
func (g *Grid) ViaCount(x, y, l int) float64 {
	if l < 0 || l >= g.NL-1 {
		return 0
	}
	return g.vias[l][g.idx(x, y)]
}

// AddVia adjusts the via count between layers l and l+1 at GCell (x,y).
func (g *Grid) AddVia(x, y, l int, delta float64) {
	i := g.idx(x, y)
	g.epoch++
	if g.journal != nil {
		k := EdgeKey{L: int32(l), I: int32(i)}
		g.journal.Vias[k] += delta
		g.journal.Mutations++
	}
	g.vias[l][i] += delta
	if g.vias[l][i] < -1e-9 {
		panic(fmt.Sprintf("grid: via count at (%d,%d,l%d) went negative", x, y, l))
	}
	// The stack enters V of Eq. 9 for the edges leaving and arriving at
	// (x,y) on both layers it joins.
	for _, vl := range [2]int{l, l + 1} {
		g.refreshEdge(x, y, vl)
		if g.horiz[vl] {
			g.refreshEdge(x-1, y, vl)
		} else {
			g.refreshEdge(x, y-1, vl)
		}
	}
}

// viasAt returns the total via count incident to GCell (x,y) on layer l
// (stacks from below and to above) — the V term of Eq. 9.
func (g *Grid) viasAt(x, y, l int) float64 {
	v := 0.0
	if l > 0 {
		v += g.vias[l-1][g.idx(x, y)]
	}
	if l < g.NL-1 {
		v += g.vias[l][g.idx(x, y)]
	}
	return v
}

// beta weights the via estimate in demand (Eq. 9); the paper uses 1.5.
const beta = 1.5

// Demand computes D_e (Eq. 9) for the edge leaving (x,y) on layer l; an
// edge that does not exist has no demand.
func (g *Grid) Demand(x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return 0
	}
	i := g.idx(x, y)
	vSrc := g.viasAt(x, y, l)
	var vDst float64
	if g.horiz[l] {
		vDst = g.viasAt(x+1, y, l)
	} else {
		vDst = g.viasAt(x, y+1, l)
	}
	delta := math.Sqrt((vSrc + vDst) / 2)
	return g.wire[l][i] + g.fixed[l][i] + beta*delta
}

// Penalty returns the logistic congestion penalty of the edge (see the
// package comment about the paper's sign typo). It lies in (0,1), crossing
// 0.5 exactly when demand equals capacity; an edge that does not exist is
// maximally penalised (1).
func (g *Grid) Penalty(x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return 1
	}
	return g.pen[l][g.idx(x, y)]
}

func logistic(s, x float64) float64 { return 1 / (1 + math.Exp(s*x)) }

// WireEdgeCost returns Eq. 10 for the planar edge leaving (x,y) on layer l.
// Dist(e) is the Manhattan distance between GCell centers in GCell units
// (1 per step), keeping costs comparable across layers.
func (g *Grid) WireEdgeCost(x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return math.Inf(1)
	}
	return g.Params.UnitWire * 1 * (1 + g.pen[l][g.idx(x, y)])
}

// ViaEdgeCost returns Eq. 10 for the via edge between layers l and l+1 at
// GCell (x,y). A via's Dist is one unit; its penalty is the mean of the
// planar penalties at the two layers it joins (see nodePenalty), so
// stacking vias into a congested GCell is discouraged.
func (g *Grid) ViaEdgeCost(x, y, l int) float64 {
	if l < 0 || l >= g.NL-1 || !g.InBounds(x, y) {
		return math.Inf(1)
	}
	i := g.idx(x, y)
	p := (g.viaPen[l][i] + g.viaPen[l+1][i]) / 2
	return g.Params.UnitVia * 1 * (1 + p)
}

// edgePenalty evaluates the penalty of the edge leaving (x,y) on layer l
// from demand and capacity: the value pen caches for it.
func (g *Grid) edgePenalty(x, y, l int) float64 {
	if !g.HasEdge(x, y, l) {
		return 1
	}
	return logistic(g.Params.Slope, g.cap[l][g.idx(x, y)]-g.Demand(x, y, l))
}

// nodePenalty samples the congestion around GCell (x,y) on layer l for the
// vias touching it: the penalty of the edge leaving it, else of the edge
// arriving when (x,y) is on the far boundary, else 1 (unroutable layer).
// It is the value viaPen caches, read from pen.
func (g *Grid) nodePenalty(x, y, l int) float64 {
	switch {
	case g.HasEdge(x, y, l):
		return g.pen[l][g.idx(x, y)]
	case g.horiz[l] && g.HasEdge(x-1, y, l):
		return g.pen[l][g.idx(x-1, y)]
	case !g.horiz[l] && g.HasEdge(x, y-1, l):
		return g.pen[l][g.idx(x, y-1)]
	}
	return 1
}

// refreshEdge re-prices the planar edge leaving (x,y) on layer l after its
// demand changed, then the via penalties of its two end GCells — every
// price entry that reads the edge's penalty. Out-of-lattice coordinates
// name no entry and are ignored.
func (g *Grid) refreshEdge(x, y, l int) {
	if !g.InBounds(x, y) {
		return
	}
	g.pen[l][g.idx(x, y)] = g.edgePenalty(x, y, l)
	g.refreshNode(x, y, l)
	if g.horiz[l] {
		g.refreshNode(x+1, y, l)
	} else {
		g.refreshNode(x, y+1, l)
	}
}

func (g *Grid) refreshNode(x, y, l int) {
	if g.InBounds(x, y) {
		g.viaPen[l][g.idx(x, y)] = g.nodePenalty(x, y, l)
	}
}

// fillPrices evaluates every price entry from the demand arrays.
func (g *Grid) fillPrices() {
	for l := 0; l < g.NL; l++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				g.pen[l][g.idx(x, y)] = g.edgePenalty(x, y, l)
			}
		}
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				g.viaPen[l][g.idx(x, y)] = g.nodePenalty(x, y, l)
			}
		}
	}
}

// DemandState is a deep copy of the grid's mutable routing demand: wire
// usage per layer and via counts per layer pair, in the grid's dense array
// layout. Capacities and fixed usage are derived deterministically from the
// design at construction and are deliberately not part of it — a checkpoint
// restores demand onto a freshly constructed grid.
//
// Wire usage also implicitly carries the construction-time seeding (pin via
// weights), which depends on the *initial* placement; restoring the arrays
// verbatim is what keeps a resumed run bit-identical even though the cells
// have moved since the grid was first seeded.
type DemandState struct {
	NX, NY, NL int
	Wire       [][]float64 // [layer][x+y*NX], len NL
	Vias       [][]float64 // [layer][gcell], len NL-1
}

// ExportDemand snapshots the mutable demand state.
func (g *Grid) ExportDemand() DemandState {
	s := DemandState{NX: g.NX, NY: g.NY, NL: g.NL}
	s.Wire = make([][]float64, g.NL)
	for l := range g.wire {
		s.Wire[l] = append([]float64(nil), g.wire[l]...)
	}
	s.Vias = make([][]float64, g.NL-1)
	for l := range g.vias {
		s.Vias[l] = append([]float64(nil), g.vias[l]...)
	}
	return s
}

// RestoreDemand overwrites the grid's wire and via demand with a prior
// ExportDemand, re-pricing every edge and advancing the epoch so every cost
// cache revalidates.
func (g *Grid) RestoreDemand(s DemandState) error {
	if g.journal != nil {
		// A bulk overwrite cannot be expressed as journal deltas; restoring
		// mid-transaction would silently break the journal's completeness
		// guarantee.
		panic("grid: RestoreDemand while a demand journal is attached")
	}
	if s.NX != g.NX || s.NY != g.NY || s.NL != g.NL {
		return fmt.Errorf("grid: demand state is %dx%dx%d, grid is %dx%dx%d",
			s.NX, s.NY, s.NL, g.NX, g.NY, g.NL)
	}
	if len(s.Wire) != g.NL || len(s.Vias) != g.NL-1 {
		return fmt.Errorf("grid: demand state has %d wire / %d via layers, want %d / %d",
			len(s.Wire), len(s.Vias), g.NL, g.NL-1)
	}
	n := g.NX * g.NY
	for l, w := range s.Wire {
		if len(w) != n {
			return fmt.Errorf("grid: wire layer %d has %d edges, want %d", l, len(w), n)
		}
	}
	for l, v := range s.Vias {
		if len(v) != n {
			return fmt.Errorf("grid: via layer %d has %d gcells, want %d", l, len(v), n)
		}
	}
	for l := range g.wire {
		copy(g.wire[l], s.Wire[l])
	}
	for l := range g.vias {
		copy(g.vias[l], s.Vias[l])
	}
	g.fillPrices()
	g.epoch++
	return nil
}

// OverflowStats summarises congestion for rip-up & reroute scheduling and
// reporting.
type OverflowStats struct {
	OverflowedEdges int
	TotalOverflow   float64
	MaxOverflow     float64
}

// Overflow scans every edge and reports where demand exceeds capacity.
func (g *Grid) Overflow() OverflowStats {
	var s OverflowStats
	for l := 1; l < g.NL; l++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if !g.HasEdge(x, y, l) {
					continue
				}
				ov := g.Demand(x, y, l) - g.Capacity(x, y, l)
				if ov > 0 {
					s.OverflowedEdges++
					s.TotalOverflow += ov
					s.MaxOverflow = math.Max(s.MaxOverflow, ov)
				}
			}
		}
	}
	return s
}

// EdgeCongestion returns demand/capacity of the edge, or 0 when the edge
// does not exist. Values above 1 are overflowed.
func (g *Grid) EdgeCongestion(x, y, l int) float64 {
	c := g.Capacity(x, y, l)
	if c <= 0 {
		return 0
	}
	return g.Demand(x, y, l) / c
}

// TotalWireUsage sums wire usage over all edges; conservation checks in
// tests use it to verify rip-up accounting.
func (g *Grid) TotalWireUsage() float64 {
	var sum float64
	for l := 1; l < g.NL; l++ {
		for _, w := range g.wire[l] {
			sum += w
		}
	}
	return sum
}

// TotalViaCount sums the via counts over all GCells and layer pairs.
func (g *Grid) TotalViaCount() float64 {
	var sum float64
	for l := 0; l < g.NL-1; l++ {
		for _, v := range g.vias[l] {
			sum += v
		}
	}
	return sum
}
