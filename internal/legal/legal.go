// Package legal implements the paper's legalizer (Section IV.B.2, Eq. 11).
// Given a critical cell, it examines a local window of N_site sites by N_row
// rows around the cell and produces a set of *legal* placement candidates:
// target positions for the critical cell, each paired with the relocations
// of the conflict cells that must shift to make room. Every candidate is
// guaranteed overlap-free, on-site, and on-row, so CR&P's Eq. 12 selection can
// commit any of them directly and hand the result to a detailed router —
// the property the paper's framework depends on.
//
// For each candidate target slot the displaced cells' new positions
// minimise Eq. 11's weighted displacement toward each cell's median
// position:
//
//	cost_c^(i,j) = W_site·|X − X_med| + H_row·|Y − Y_med|
//
// The paper states Eq. 11 as an ILP. One execution moves at most three
// cells, so a model has at most two conflict cells of at most
// maxSlotsPerConflict slots each, and its exact optimum is found by
// enumerating at most 144 slot pairs (relocation).
package legal

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
)

// Config sets the window geometry and search effort. The paper uses
// NSites=20 and NRows=5 (and at most maxCells cells per legalizer
// execution).
type Config struct {
	NSites        int // window width in sites
	NRows         int // window height in rows
	MaxCandidates int // cap on returned candidates per critical cell
}

// DefaultConfig returns the paper's experimental values.
func DefaultConfig() Config {
	return Config{NSites: 20, NRows: 5, MaxCandidates: 8}
}

// Candidate is one legal placement option for a critical cell.
type Candidate struct {
	// Pos is the critical cell's target position (lower-left, DBU).
	Pos geom.Point
	// Conflicts maps displaced conflict cells to their new legal
	// positions; empty when the target slot was already free.
	Conflicts map[int32]geom.Point
	// Displacement is the Eq. 11 objective: the summed weighted
	// displacement of the critical cell and conflict cells from their
	// median positions.
	Displacement float64
}

// Bound is a caller's lower-bound test on a target slot: it reports whether
// the candidate that puts the critical cell at pos and relocates the
// conflict cells (IDs ascending; the slice is valid only during the call)
// is provably not worth keeping, wherever relocation would put them. A
// proven slot that is feasible still counts toward MaxCandidates, but it is
// neither relocated nor returned.
type Bound func(pos geom.Point, conflicts []int32) bool

// Stats counts the slots a Bound proved.
type Stats struct {
	// WindowHits, WindowMisses, SolveHits, SolveMisses, ShortcutSolves and
	// BudgetDropped are always 0: the window-result cache, the relocation-
	// ILP solve cache, its unique-optimum shortcut and its budget ladder
	// they counted are gone. They stay until the benchmark stops reading
	// them.
	WindowHits     int64
	WindowMisses   int64
	SolveHits      int64
	SolveMisses    int64
	ShortcutSolves int64
	BudgetDropped  int64
	// Bounded counts feasible target slots a Bound proved, which were
	// counted toward MaxCandidates without a relocation.
	Bounded int64
}

// Legalizer generates candidates against a design.
type Legalizer struct {
	D   *db.Design
	Cfg Config

	// bounded counts proven slots; atomic because Run is called
	// concurrently from CR&P's worker pool.
	bounded atomic.Int64

	// seed, when set, replaces RunScratch's body with the seed legalizer
	// the differential referees compare against; set only by tests.
	seed func(c *db.Cell) []Candidate

	// Cumulative nanoseconds inside Run, summed across workers; feeds the
	// GCP phase-time breakdown.
	runNS atomic.Int64

	// medEpoch scopes the per-worker median memos: BeginPass bumps it, and
	// Scratch memos tagged with an older epoch are cleared on next use.
	// Zero (no BeginPass ever called) disables cross-Run reuse entirely.
	medEpoch atomic.Uint64

	// Static fast-path state, built once in New.
	wmax    int               // widest cell in the design
	obsFree [][]geom.Interval // per row: obstacle X intervals blocking sites
}

// Stats snapshots the counters.
func (l *Legalizer) Stats() Stats {
	return Stats{Bounded: l.bounded.Load()}
}

// New creates a legalizer. Zero Config fields fall back to defaults.
func New(d *db.Design, cfg Config) *Legalizer {
	def := DefaultConfig()
	if cfg.NSites <= 0 {
		cfg.NSites = def.NSites
	}
	if cfg.NRows <= 0 {
		cfg.NRows = def.NRows
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	l := &Legalizer{D: d, Cfg: cfg}
	for _, c := range d.Cells {
		if c.Macro.Width > l.wmax {
			l.wmax = c.Macro.Width
		}
	}
	// Obstacle X intervals per row, with FreeSitesIn's exact rowRect
	// overlap test; obstacles are static, so this is computed once.
	sw, sh := d.Tech.Site.Width, d.Tech.Site.Height
	l.obsFree = make([][]geom.Interval, len(d.Rows))
	for ri := range d.Rows {
		r := &d.Rows[ri]
		span := r.Span(sw)
		rowRect := geom.Rect{Lo: geom.Pt(span.Lo, r.Y), Hi: geom.Pt(span.Hi, r.Y+sh)}
		for _, o := range d.Obs {
			if o.Rect.Overlaps(rowRect) {
				l.obsFree[ri] = append(l.obsFree[ri], geom.Iv(o.Rect.Lo.X, o.Rect.Hi.X))
			}
		}
	}
	return l
}

// window is the site/row extent the legalizer works in.
type window struct {
	rows   []int32 // row indices, ascending
	x0, x1 int     // DBU interval of the window's sites
}

// windowAround centres the window on the cell, clipping at the die.
func (l *Legalizer) windowAround(c *db.Cell) window {
	d := l.D
	sw := d.Tech.Site.Width
	halfW := l.Cfg.NSites * sw / 2
	x0 := geom.SnapDown(c.Pos.X-halfW, sw)
	x1 := x0 + l.Cfg.NSites*sw
	if x0 < d.Die.Lo.X {
		x0 = d.Die.Lo.X
		x1 = x0 + l.Cfg.NSites*sw
	}
	if x1 > d.Die.Hi.X {
		x1 = d.Die.Hi.X
		x0 = x1 - l.Cfg.NSites*sw
		if x0 < d.Die.Lo.X {
			x0 = d.Die.Lo.X
		}
	}
	r0 := int(c.Row) - l.Cfg.NRows/2
	r1 := r0 + l.Cfg.NRows
	if r0 < 0 {
		r0 = 0
		r1 = min(l.Cfg.NRows, len(d.Rows))
	}
	if r1 > len(d.Rows) {
		r1 = len(d.Rows)
		r0 = max(0, r1-l.Cfg.NRows)
	}
	w := window{x0: x0, x1: x1}
	for r := r0; r < r1; r++ {
		w.rows = append(w.rows, int32(r))
	}
	return w
}

// Run generates legal candidates for the critical cell. The current
// position is not included (CR&P's Algorithm 2 adds it separately); every
// returned candidate differs from the cell's current position. Candidates
// are sorted by ascending displacement.
func (l *Legalizer) Run(cellID int32) []Candidate {
	return l.RunScratch(cellID, nil, nil)
}

// RunScratch is Run with caller-provided per-worker scratch buffers and an
// optional Bound, the entry point for CR&P's parallel candidate-generation
// fan-out. scr must not be shared between concurrent callers; nil allocates
// a fresh one. With a bound, the result is Run's minus the candidates at
// slots the bound proved, in Run's order; a nil bound walks exactly as Run.
func (l *Legalizer) RunScratch(cellID int32, scr *Scratch, bound Bound) []Candidate {
	start := time.Now()
	defer func() { l.runNS.Add(time.Since(start).Nanoseconds()) }()
	d := l.D
	c := d.Cells[cellID]
	if c.Fixed {
		return nil
	}
	if l.seed != nil {
		return l.seed(c)
	}
	if scr == nil {
		scr = NewScratch()
	}
	scr.reset(l.medEpoch.Load())
	w := l.windowAround(c)
	l.buildOccupancy(w, scr)
	return l.runWindow(c, w, bound, scr)
}

// runWindow enumerates target slots for the critical cell — every
// site-aligned position in the window where the cell fits inside the row
// span — ranked by the critical cell's own Eq. 11 displacement, then tries
// them in order until MaxCandidates are feasible. A window holds ~90 slots
// and the walk stops after ~12, so the slots are popped off a heap in
// (cost, Y, X) order rather than sorted: the order is total over distinct
// positions, so the pops are exactly the sorted sequence.
func (l *Legalizer) runWindow(c *db.Cell, w window, bound Bound, scr *Scratch) []Candidate {
	d := l.D
	med := l.medianOf(scr, c.ID)
	sw := d.Tech.Site.Width
	cw, ch := c.Macro.Width, c.Macro.Height

	// Per-window-row slot legality, hoisted out of the site walk. Together
	// with the span/alignment guarantees of the walk itself this reproduces
	// d.CheckLegal exactly: rowOK is the die Y containment, the obs
	// intervals are the obstacles whose rect overlaps the cell's rect on
	// that row, and the die X containment is checked per slot below.
	if len(scr.obs) < len(w.rows) {
		scr.obs = append(scr.obs, make([][]geom.Interval, len(w.rows)-len(scr.obs))...)
	}
	scr.rowOK = scr.rowOK[:0]
	cellEmpty := cw <= 0 || ch <= 0 // empty rects overlap no obstacle
	for wi, ri := range w.rows {
		row := &d.Rows[ri]
		scr.rowOK = append(scr.rowOK, row.Y >= d.Die.Lo.Y && row.Y+ch <= d.Die.Hi.Y)
		obs := scr.obs[wi][:0]
		if !cellEmpty {
			for _, o := range d.Obs {
				if !o.Rect.Empty() && o.Rect.Lo.Y < row.Y+ch && row.Y < o.Rect.Hi.Y {
					obs = append(obs, geom.Iv(o.Rect.Lo.X, o.Rect.Hi.X))
				}
			}
		}
		scr.obs[wi] = obs
	}

	slots := scr.winSlots[:0]
	for wi, ri := range w.rows {
		if !scr.rowOK[wi] {
			continue
		}
		row := &d.Rows[ri]
		span := row.Span(sw)
		lo := max(w.x0, span.Lo)
		hi := min(w.x1, span.Hi)
		for x := geom.SnapUp(lo-row.X, sw) + row.X; x+cw <= hi; x += sw {
			pos := geom.Pt(x, row.Y)
			if pos == c.Pos {
				continue
			}
			if x < d.Die.Lo.X || x+cw > d.Die.Hi.X {
				continue
			}
			blocked := false
			for _, iv := range scr.obs[wi] {
				if iv.Lo < x+cw && x < iv.Hi {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			slots = append(slots, winSlot{pos, wi, l.displacement(pos, med)})
		}
	}
	scr.winSlots = slots[:0]
	for i := len(slots)/2 - 1; i >= 0; i-- {
		siftDown(slots, i)
	}

	var out []Candidate
	feasible := 0
	for len(slots) > 0 && feasible < l.Cfg.MaxCandidates {
		s := slots[0]
		n := len(slots) - 1
		slots[0] = slots[n]
		slots = slots[:n]
		siftDown(slots, 0)
		cand, ok, proven := l.trySlot(c, s.pos, s.wi, w, med, bound, scr)
		if !ok {
			continue
		}
		feasible++
		if proven {
			l.bounded.Add(1)
			continue
		}
		out = append(out, cand)
	}
	// Stable, so dropping the proven slots leaves every other candidate in
	// the order the unbounded walk returns it.
	slices.SortStableFunc(out, func(a, b Candidate) int { return cmp.Compare(a.Displacement, b.Displacement) })
	return out
}

// slotBefore is the (cost, Y, X) order of target slots.
func slotBefore(a, b winSlot) bool {
	switch {
	case a.cost != b.cost:
		return a.cost < b.cost
	case a.pos.Y != b.pos.Y:
		return a.pos.Y < b.pos.Y
	default:
		return a.pos.X < b.pos.X
	}
}

// siftDown restores the slotBefore min-heap property of h below node i.
func siftDown(h []winSlot, i int) {
	for {
		m := i
		if k := 2*i + 1; k < len(h) && slotBefore(h[k], h[m]) {
			m = k
		}
		if k := 2*i + 2; k < len(h) && slotBefore(h[k], h[m]) {
			m = k
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// displacement is Eq. 11's cost of a position: the L1 distance from the
// median in DBU. Because positions are site- and row-aligned this equals
// W_site·|Δsite| + H_row·|Δrow|, the exact form printed in the paper.
func (l *Legalizer) displacement(pos, med geom.Point) float64 {
	return float64(geom.Abs(pos.X-med.X) + geom.Abs(pos.Y-med.Y))
}

// maxCells caps the cells of one legalizer execution, the critical cell
// plus its conflict cells (paper: 3).
const maxCells = 3

// trySlot checks whether the critical cell can take pos. If cells are in
// the way, the conflict cells (at most maxCells-1) are relocated inside the
// window (relocateConflicts); failure to relocate rejects the slot. A slot
// that bound proves is only tested for feasibility (relocatable) and comes
// back with proven set and no candidate.
func (l *Legalizer) trySlot(c *db.Cell, pos geom.Point, wi int, w window, med geom.Point, bound Bound, scr *Scratch) (cand Candidate, ok, proven bool) {
	d := l.D
	span := geom.Iv(pos.X, pos.X+c.Macro.Width)

	// Conflict cells: movable cells overlapping the target span (other
	// than the critical cell itself). The occupancy snapshot holds this
	// row's cells in the same left-to-right order CellsInRowRange returns.
	var conflicts []*db.Cell
	for _, blk := range scr.occ[scr.occOff[wi]:scr.occOff[wi+1]] {
		if blk.b <= span.Lo || blk.a >= span.Hi || blk.id == c.ID {
			continue
		}
		if blk.fixed {
			return Candidate{}, false, false // cannot displace fixed cells
		}
		conflicts = append(conflicts, d.Cells[blk.id])
	}
	if len(conflicts) > maxCells-1 {
		return Candidate{}, false, false // paper caps the execution at |cells|=3
	}
	if bound != nil {
		ids := scr.boundIDs[:0]
		for _, cc := range conflicts {
			ids = append(ids, cc.ID)
		}
		slices.Sort(ids)
		scr.boundIDs = ids
		if bound(pos, ids) {
			return Candidate{}, l.relocatable(c, pos, wi, conflicts, w, scr), true
		}
	}
	if len(conflicts) == 0 {
		return Candidate{
			Pos:          pos,
			Conflicts:    map[int32]geom.Point{},
			Displacement: l.displacement(pos, med),
		}, true, false
	}

	moves, cost, ok := l.relocateConflicts(c, pos, wi, conflicts, w, scr)
	if !ok {
		return Candidate{}, false, false
	}
	return Candidate{
		Pos:          pos,
		Conflicts:    moves,
		Displacement: l.displacement(pos, med) + cost,
	}, true, false
}

// relocatable reports whether relocateConflicts would relocate the
// conflict cells of a target slot at pos on window row wt, of which
// maxCells allows at most two, without costing or ordering their slots
// where it can. A conflict cell's slots are its free sites that do not
// overlap the target, cut to the maxSlotsPerConflict cheapest, and a
// non-empty set is never cut to nothing:
//
//   - none: there is nothing to move;
//   - one: it needs one slot, so the first free site off the target will
//     do;
//   - two: they need a pair of slots that does not overlap. While neither
//     has more than maxSlotsPerConflict sites the cut keeps every site, so
//     any pair of sites decides; otherwise the pair must come from the
//     cheapest lists (filteredSlots), as relocation's does.
func (l *Legalizer) relocatable(c *db.Cell, pos geom.Point, wt int, conflicts []*db.Cell, w window, scr *Scratch) bool {
	if len(conflicts) == 0 {
		return true
	}
	d := l.D
	ignore := l.ignoreSet(c, conflicts, scr)
	targetSpan := geom.Iv(pos.X, pos.X+c.Macro.Width)
	if len(conflicts) == 1 {
		cc := conflicts[0]
		for wi := range w.rows {
			if wi != wt && len(l.rowFree(c.ID, w, wi, cc.Macro.Width, scr)) > 0 {
				return true
			}
		}
		for _, x := range l.freeSitesFast(w, wt, w.rows[wt], cc.Macro.Width, ignore, scr) {
			if !geom.Iv(x, x+cc.Macro.Width).Overlaps(targetSpan) {
				return true
			}
		}
		return false
	}

	sites := scr.sites[:0]
	var offs [3]int
	for k, cc := range conflicts {
		offs[k] = len(sites)
		for wi, ri := range w.rows {
			y := d.Rows[ri].Y
			for _, x := range l.conflictRowSites(c, cc, w, wi, wt, ignore, scr) {
				if wi == wt && geom.Iv(x, x+cc.Macro.Width).Overlaps(targetSpan) {
					continue
				}
				sites = append(sites, geom.Pt(x, y))
			}
		}
		if n := len(sites) - offs[k]; n == 0 {
			scr.sites = sites[:0]
			return false
		} else if n > maxSlotsPerConflict {
			scr.sites = sites[:0]
			filt, foffs, ok := l.filteredSlots(c, pos, wt, conflicts, w, scr)
			if !ok {
				return false
			}
			_, _, ok = relocation(filt, foffs, conflictWidths(conflicts))
			return ok
		}
	}
	scr.sites = sites[:0]
	offs[2] = len(sites)
	wa, wb := conflicts[0].Macro.Width, conflicts[1].Macro.Width
	for _, a := range sites[offs[0]:offs[1]] {
		for _, b := range sites[offs[1]:offs[2]] {
			if !slotsOverlap(a, wa, b, wb) {
				return true
			}
		}
	}
	return false
}

// slotsOverlap reports whether cells of widths wa and wb at slots a and b
// would share a site.
func slotsOverlap(a geom.Point, wa int, b geom.Point, wb int) bool {
	return a.Y == b.Y && a.X < b.X+wb && b.X < a.X+wa
}

// relocateConflicts solves Eq. 11 for the conflict cells of a target slot:
// each takes one free slot in the window, the slots overlap neither each
// other nor the critical cell's target, and their summed displacement
// toward each conflict cell's median is least (relocation).
func (l *Legalizer) relocateConflicts(c *db.Cell, pos geom.Point, wt int, conflicts []*db.Cell, w window, scr *Scratch) (map[int32]geom.Point, float64, bool) {
	filt, offs, ok := l.filteredSlots(c, pos, wt, conflicts, w, scr)
	if !ok {
		return nil, 0, false // nowhere to put some conflict cell
	}
	pick, cost, ok := relocation(filt, offs, conflictWidths(conflicts))
	if !ok {
		return nil, 0, false
	}
	moves := make(map[int32]geom.Point, len(conflicts))
	for k, cc := range conflicts {
		moves[cc.ID] = filt[pick[k]].p
	}
	return moves, cost, true
}

// conflictWidths returns the widths of at most maxCells-1 conflict cells.
func conflictWidths(conflicts []*db.Cell) (w [maxCells - 1]int) {
	for k, cc := range conflicts {
		w[k] = cc.Macro.Width
	}
	return w
}

// relocation is the exact optimum of Eq. 11 for one or two conflict cells,
// by enumeration. filt and offs hold the cells' slot lists as filteredSlots
// returns them, each in (cost, Y, X) order, and widths[k] is conflict k's
// width. One cell takes its first slot. Two take the pair of slots that do
// not overlap with the lowest summed cost, and among equal sums the lowest
// (rank of the first cell's slot, rank of the second's) in the lists'
// order. pick[k] is conflict k's slot, an index into filt, and cost the
// summed cost; ok is false when some list is empty or every pair overlaps.
func relocation(filt []conSlot, offs []int32, widths [maxCells - 1]int) (pick [maxCells - 1]int32, cost float64, ok bool) {
	a := filt[offs[0]:offs[1]]
	if len(a) == 0 {
		return pick, 0, false
	}
	if len(offs) == 2 {
		return [maxCells - 1]int32{offs[0]}, a[0].cost, true
	}
	b := filt[offs[1]:offs[2]]
	for i, sa := range a {
		for j, sb := range b {
			if slotsOverlap(sa.p, widths[0], sb.p, widths[1]) {
				continue
			}
			if sum := sa.cost + sb.cost; !ok || sum < cost {
				pick, cost, ok = [maxCells - 1]int32{offs[0] + int32(i), offs[1] + int32(j)}, sum, true
			}
		}
	}
	return pick, cost, ok
}

// maxSlotsPerConflict caps each conflict cell's relocation domain to its
// cheapest slots, so relocation scans at most 144 pairs.
const maxSlotsPerConflict = 12

// filteredSlots is each conflict cell's feasible slot list for a target
// slot at pos on window row wt, sorted by the (cost, Y, X) total order
// (conflictSlots). Slots overlapping the critical cell's target are
// filtered out here, and only the maxSlotsPerConflict cheapest kept.
// Filtering the sorted list is the same as sorting the filtered set (total
// order). Lists live
// concatenated in scr.conSlots with offs[k] marking conflict k's start and
// offs[len(conflicts)] the end. ok is false when some conflict cell has no
// slot left.
func (l *Legalizer) filteredSlots(c *db.Cell, pos geom.Point, wt int, conflicts []*db.Cell, w window, scr *Scratch) (filt []conSlot, offs []int32, ok bool) {
	ignore := l.ignoreSet(c, conflicts, scr)
	targetSpan := geom.Iv(pos.X, pos.X+c.Macro.Width)
	filt, offs = scr.conSlots[:0], scr.filtOff[:0]
	for _, cc := range conflicts {
		med := l.medianOf(scr, cc.ID)
		full := l.conflictSlots(c, cc, med, w, wt, ignore, scr)
		n0 := len(filt)
		offs = append(offs, int32(n0))
		for _, s := range full {
			// Same row as the target iff same Y; rows sit at distinct Y.
			if s.p.Y == pos.Y && geom.Iv(s.p.X, s.p.X+cc.Macro.Width).Overlaps(targetSpan) {
				continue
			}
			filt = append(filt, s)
			if len(filt)-n0 == maxSlotsPerConflict {
				break
			}
		}
		if len(filt) == n0 {
			scr.conSlots, scr.filtOff = filt[:0], offs[:0]
			return nil, nil, false
		}
	}
	offs = append(offs, int32(len(filt)))
	scr.conSlots, scr.filtOff = filt[:0], offs[:0]
	return filt, offs, true
}

// ignoreSet is the ignore set of a target slot's free-site walks: the
// critical cell and the slot's conflict cells.
func (l *Legalizer) ignoreSet(c *db.Cell, conflicts []*db.Cell, scr *Scratch) []int32 {
	ignore := append(scr.ignore[:0], c.ID)
	for _, cc := range conflicts {
		ignore = append(ignore, cc.ID)
	}
	scr.ignore = ignore[:0]
	return ignore
}

// Apply commits a candidate: the critical cell and its conflict cells move
// atomically. The design stays legal or the call fails without changes.
func (l *Legalizer) Apply(cellID int32, cand Candidate) error {
	moves := map[int32]geom.Point{cellID: cand.Pos}
	for id, p := range cand.Conflicts {
		moves[id] = p
	}
	return l.D.MoveCells(moves)
}
