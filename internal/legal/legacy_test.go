package legal

import (
	"sort"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
)

// This file preserves the pre-fast-path legalizer verbatim (per-slot
// db.CheckLegal, per-call db.FreeSitesIn, per-slot db.NetMedianOf,
// relocation solves on the seed solver ilp.SolveDense, no result caches).
// The seed hook routes RunScratch through it (see newSeed and UseSeed),
// giving the differential parity referees a genuinely independent
// implementation rather than the fast path with a different solver
// backend. The one deliberate difference from the seed is the sorted
// site-cap emission — the old map-ordered emission made the relocation
// model's constraint order random, which was a latent nondeterminism bug,
// not behaviour worth preserving.

// runLegacy is the seed implementation of Run.
func (l *Legalizer) runLegacy(c *db.Cell) []Candidate {
	d := l.D
	w := l.windowAround(c)
	med := d.NetMedianOf(c.ID)
	sw := d.Tech.Site.Width

	// Enumerate target slots for the critical cell: every site-aligned
	// position in the window where the cell fits inside the row span,
	// ranked by the critical cell's own Eq. 11 displacement.
	type slot struct {
		pos  geom.Point
		cost float64
	}
	var slots []slot
	for _, ri := range w.rows {
		row := &d.Rows[ri]
		span := row.Span(sw)
		lo := max(w.x0, span.Lo)
		hi := min(w.x1, span.Hi)
		for x := geom.SnapUp(lo-row.X, sw) + row.X; x+c.Macro.Width <= hi; x += sw {
			pos := geom.Pt(x, row.Y)
			if pos == c.Pos {
				continue
			}
			if d.CheckLegal(c, pos) != nil {
				continue // obstacle or die clipping
			}
			slots = append(slots, slot{pos, l.displacement(pos, med)})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].cost != slots[b].cost {
			return slots[a].cost < slots[b].cost
		}
		if slots[a].pos.Y != slots[b].pos.Y {
			return slots[a].pos.Y < slots[b].pos.Y
		}
		return slots[a].pos.X < slots[b].pos.X
	})

	var out []Candidate
	for _, s := range slots {
		if len(out) >= l.Cfg.MaxCandidates {
			break
		}
		cand, ok := l.trySlotLegacy(c, s.pos, w, med)
		if ok {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Displacement < out[b].Displacement })
	return out
}

// trySlotLegacy checks whether the critical cell can take pos, relocating
// conflict cells with the seed-solver ILP when needed.
func (l *Legalizer) trySlotLegacy(c *db.Cell, pos geom.Point, w window, med geom.Point) (Candidate, bool) {
	d := l.D
	row, _ := d.RowAt(pos.Y)
	span := geom.Iv(pos.X, pos.X+c.Macro.Width)

	// Conflict cells: movable cells overlapping the target span (other
	// than the critical cell itself).
	var conflicts []*db.Cell
	for _, id := range d.CellsInRowRange(row.Index, span.Lo, span.Hi) {
		if id == c.ID {
			continue
		}
		cc := d.Cells[id]
		if cc.Fixed {
			return Candidate{}, false // cannot displace fixed cells
		}
		conflicts = append(conflicts, cc)
	}
	if len(conflicts) > maxCells-1 {
		return Candidate{}, false // paper caps the execution at |cells|=3
	}
	if len(conflicts) == 0 {
		return Candidate{
			Pos:          pos,
			Conflicts:    map[int32]geom.Point{},
			Displacement: l.displacement(pos, med),
		}, true
	}

	moves, cost, ok := l.relocateConflictsLegacy(c, pos, conflicts, w)
	if !ok {
		return Candidate{}, false
	}
	return Candidate{
		Pos:          pos,
		Conflicts:    moves,
		Displacement: l.displacement(pos, med) + cost,
	}, true
}

// relocateConflictsLegacy builds the Eq. 11 relocation ILP with per-call
// db.FreeSitesIn scans and solves it with the seed solver.
func (l *Legalizer) relocateConflictsLegacy(c *db.Cell, pos geom.Point, conflicts []*db.Cell, w window) (map[int32]geom.Point, float64, bool) {
	d := l.D
	sw := d.Tech.Site.Width
	ignore := map[int32]bool{c.ID: true}
	for _, cc := range conflicts {
		ignore[cc.ID] = true
	}
	targetRow, _ := d.RowAt(pos.Y)
	targetSpan := geom.Iv(pos.X, pos.X+c.Macro.Width)

	m := ilp.NewModel()
	type varPos struct {
		cell int32
		pos  geom.Point
	}
	var vars []varPos
	// siteUse[(row,siteX)] collects the variables covering each site.
	siteUse := map[[2]int][]ilp.Term{}

	for _, cc := range conflicts {
		med := d.NetMedianOf(cc.ID)
		// Collect the feasible slots, keep only the cheapest few: the ILP
		// never benefits from far-away relocations (Eq. 11 minimises
		// displacement), and the cap keeps the model tiny.
		type slotCost struct {
			p    geom.Point
			cost float64
		}
		var slots []slotCost
		for _, ri := range w.rows {
			row := &d.Rows[ri]
			for _, x := range d.FreeSitesIn(ri, w.x0, w.x1, cc.Macro.Width, ignore) {
				p := geom.Pt(x, row.Y)
				// Slots overlapping the critical cell's target are gone.
				if row.Index == targetRow.Index && geom.Iv(x, x+cc.Macro.Width).Overlaps(targetSpan) {
					continue
				}
				slots = append(slots, slotCost{p, l.displacement(p, med)})
			}
		}
		if len(slots) == 0 {
			return nil, 0, false // nowhere to put this conflict cell
		}
		sort.Slice(slots, func(a, b int) bool {
			if slots[a].cost != slots[b].cost {
				return slots[a].cost < slots[b].cost
			}
			if slots[a].p.Y != slots[b].p.Y {
				return slots[a].p.Y < slots[b].p.Y
			}
			return slots[a].p.X < slots[b].p.X
		})
		if len(slots) > maxSlotsPerConflict {
			slots = slots[:maxSlotsPerConflict]
		}
		var terms []ilp.Term
		for _, s := range slots {
			v := m.AddBinary("", s.cost)
			vars = append(vars, varPos{cc.ID, s.p})
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
			row, _ := d.RowAt(s.p.Y)
			for x := s.p.X; x < s.p.X+cc.Macro.Width; x += sw {
				key := [2]int{int(row.Index), x}
				siteUse[key] = append(siteUse[key], ilp.Term{Var: v, Coef: 1})
			}
		}
		m.AddConstraint("one-pos", terms, ilp.EQ, 1)
	}
	siteKeys := make([][2]int, 0, len(siteUse))
	for k := range siteUse {
		siteKeys = append(siteKeys, k)
	}
	sort.Slice(siteKeys, func(a, b int) bool {
		if siteKeys[a][0] != siteKeys[b][0] {
			return siteKeys[a][0] < siteKeys[b][0]
		}
		return siteKeys[a][1] < siteKeys[b][1]
	})
	for _, k := range siteKeys {
		if terms := siteUse[k]; len(terms) > 1 {
			m.AddConstraint("site-cap", terms, ilp.LE, 1)
		}
	}
	t0 := time.Now()
	sol := m.SolveDense(ilp.Options{
		MaxNodes:  l.Cfg.MaxNodes,
		TimeLimit: l.Cfg.TimeLimit,
	})
	l.solveNS.Add(time.Since(t0).Nanoseconds())
	switch {
	case sol.Status == ilp.Optimal:
		// Certified optimum; fall through to extraction.
	case sol.Status == ilp.LimitReached && sol.HasIncumbent:
		// Degradation ladder: the budget expired but the incumbent is an
		// integer-feasible assignment of the model, i.e. every conflict
		// cell takes exactly one pre-validated free slot and no site is
		// double-booked — legal, just possibly not displacement-optimal.
		l.incumbentKept.Add(1)
	default:
		// Infeasible (no way to clear the slot) or budget expired with no
		// incumbent: drop the candidate slot entirely.
		if sol.Status == ilp.LimitReached {
			l.budgetDropped.Add(1)
		}
		return nil, 0, false
	}
	moves := make(map[int32]geom.Point, len(conflicts))
	for i, vp := range vars {
		if sol.Value(ilp.VarID(i)) {
			moves[vp.cell] = vp.pos
		}
	}
	return moves, sol.Objective, true
}
