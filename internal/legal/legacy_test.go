package legal

import (
	"sort"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
)

// This file preserves the pre-fast-path legalizer (per-slot db.CheckLegal,
// per-call db.FreeSitesIn, per-slot db.NetMedianOf, no result caches). The
// seed hook routes RunScratch through it (see UseSeed), giving the
// differential parity referees a genuinely independent implementation. Its
// relocation is a brute-force scan over every assignment of the conflict
// cells' capped slot lists under the tie rule production uses (lowest
// summed displacement, then the lowest slot ranks in list order); it
// shares no code with production's relocation.

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
// conflict cells when needed.
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

// relocateConflictsLegacy solves Eq. 11 for the conflict cells by trying
// every assignment of their slot lists, collected with per-call
// db.FreeSitesIn scans.
func (l *Legalizer) relocateConflictsLegacy(c *db.Cell, pos geom.Point, conflicts []*db.Cell, w window) (map[int32]geom.Point, float64, bool) {
	d := l.D
	ignore := map[int32]bool{c.ID: true}
	for _, cc := range conflicts {
		ignore[cc.ID] = true
	}
	targetRow, _ := d.RowAt(pos.Y)
	targetSpan := geom.Iv(pos.X, pos.X+c.Macro.Width)

	type slotCost struct {
		p    geom.Point
		cost float64
	}
	lists := make([][]slotCost, len(conflicts))
	for k, cc := range conflicts {
		med := d.NetMedianOf(cc.ID)
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
		// Only the cheapest few: Eq. 11 minimises displacement.
		if len(slots) > maxSlotsPerConflict {
			slots = slots[:maxSlotsPerConflict]
		}
		lists[k] = slots
	}

	// Walk every assignment, the first conflict's rank varying slowest, and
	// keep the first of the cheapest that puts no two cells on one site.
	best, bestCost := []int(nil), 0.0
	pick := make([]int, len(conflicts))
	for {
		cost, clash := 0.0, false
		for k, i := range pick {
			cost += lists[k][i].cost
			for k2 := 0; k2 < k; k2++ {
				a, b := lists[k2][pick[k2]].p, lists[k][i].p
				if a.Y == b.Y && a.X < b.X+conflicts[k].Macro.Width && b.X < a.X+conflicts[k2].Macro.Width {
					clash = true
				}
			}
		}
		if !clash && (best == nil || cost < bestCost) {
			best, bestCost = append([]int(nil), pick...), cost
		}
		k := len(pick) - 1
		for k >= 0 && pick[k] == len(lists[k])-1 {
			pick[k] = 0
			k--
		}
		if k < 0 {
			break
		}
		pick[k]++
	}
	if best == nil {
		return nil, 0, false
	}
	moves := make(map[int32]geom.Point, len(conflicts))
	for k, cc := range conflicts {
		moves[cc.ID] = lists[k][best[k]].p
	}
	return moves, bestCost, true
}
