// Package view layers copy-on-write access over the three stores that hold
// a design's mutable state — db.Design (positions, orientations, history),
// grid.Grid (routing demand) and the global router's route set — so that
// every consumer of "state I might throw away" goes through one kernel
// instead of hand-rolling its own scratch, snapshot or export mechanism.
//
// The layering, bottom to top:
//
//	base       View        — read-only facade over db + grid + routes
//	speculate  Overlay     — per-worker hypothetical cell moves (Algorithm 3
//	                         prices candidates "with all other cells fixed");
//	                         never touches the base, O(staged cells) to reset
//	transact   Txn         — one iteration's write set: moves, route swaps
//	                         and a demand journal, with Commit/Discard and an
//	                         O(Δ) diff-based invariant check
//	persist    State       — the materialized mutable state, the unit a
//	                         checkpoint serializes and a resume rebuilds
//
// Who owns which layer: the CR&P engine owns one Overlay per ECC worker and
// one Txn per iteration; the flow owns Materialize/Rebuild at checkpoint
// boundaries. The base stores stay authoritative — a View holds no state of
// its own — so read paths cost exactly what direct access cost before.
//
// Commit/discard rules: an Overlay is discarded by Reset (it never wrote
// anything); a Txn must end in exactly one of Commit (keep the writes, drop
// the undo log) or Discard (restore routes, demand and positions to the
// Begin state). Both detach the demand journal, so at most one Txn can be
// open per grid at a time.
package view

import (
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/global"
)

// View is the base layer: a read facade over the design, the routing grid
// and the committed route set. It is stateless and cheap to share; overlays
// and transactions are created from it.
type View struct {
	d *db.Design
	g *grid.Grid
	r *global.Router
}

// New builds a view over live stores. The router must be routing on g and
// both must reference d.
func New(d *db.Design, g *grid.Grid, r *global.Router) *View {
	return &View{d: d, g: g, r: r}
}

// Design returns the underlying design (read access; mutate only through a
// Txn).
func (v *View) Design() *db.Design { return v.d }

// Grid returns the underlying routing grid.
func (v *View) Grid() *grid.Grid { return v.g }

// Router returns the underlying global router.
func (v *View) Router() *global.Router { return v.r }

// Pos returns the committed position of cell id.
func (v *View) Pos(id int32) geom.Point { return v.d.Cells[id].Pos }

// Demand returns the committed routing demand D_e (Eq. 9) of the edge
// leaving GCell (x,y) on layer l.
func (v *View) Demand(x, y, l int) float64 { return v.g.Demand(x, y, l) }

// Route returns the committed route of net nid (nil when unrouted).
func (v *View) Route(nid int32) *global.Route { return v.r.Routes[nid] }

// NetCost returns the live routed cost of net nid (memoised against the
// demand version; see route/global's estimation caches).
func (v *View) NetCost(nid int32) float64 { return v.r.NetCost(nid) }

// Version returns the state version of the view: the grid's demand epoch.
// It advances on every committed demand mutation, so any value derived from
// demand (edge costs, net costs, candidate prices) is valid exactly while
// Version is unchanged — the key the estimation caches use. Overlays never
// advance it; a Txn advances it once per route-swap mutation.
func (v *View) Version() uint64 { return v.g.Epoch() }

// Overlay returns a new, empty speculation overlay on this view. Each ECC
// worker keeps its own; overlays are not safe for concurrent use, but
// distinct overlays over one view are.
func (v *View) Overlay() *Overlay { return &Overlay{v: v} }
