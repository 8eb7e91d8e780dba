// Package legal implements the paper's ILP-based legalizer (Section IV.B.2,
// Eq. 11). Given a critical cell, it examines a local window of N_site
// sites by N_row rows around the cell and produces a set of *legal*
// placement candidates: target positions for the critical cell, each paired
// with the relocations of the conflict cells that must shift to make room.
// Every candidate is guaranteed overlap-free, on-site, and on-row, so
// CR&P's selection ILP can commit any of them directly and hand the result
// to a detailed router — the property the paper's framework depends on.
//
// For each candidate target slot the displaced cells' new positions are
// chosen by a small 0/1 ILP (internal/ilp) minimising Eq. 11's weighted
// displacement toward each cell's median position:
//
//	cost_c^(i,j) = W_site·|X − X_med| + H_row·|Y − Y_med|
package legal

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
)

// Config sets the window geometry and search effort. The paper uses
// NSites=20, NRows=5 and at most 3 cells per legalizer execution.
type Config struct {
	NSites        int // window width in sites
	NRows         int // window height in rows
	MaxCells      int // cells per ILP execution (critical + conflicts)
	MaxCandidates int // cap on returned candidates per critical cell
	// MaxSlotsPerConflict caps each conflict cell's relocation domain to
	// its cheapest slots; 0 means unlimited. Eq. 11 minimises
	// displacement, so distant slots never win — the cap only trims the
	// ILP.
	MaxSlotsPerConflict int
	// MaxNodes / TimeLimit budget each relocation ILP; 0 means unlimited
	// (the default — Eq. 11 models are tiny). When a budget expires the
	// legalizer degrades per the robustness ladder: the solver's best
	// incumbent is kept when it covers all conflict cells (it is legal by
	// construction of the model), otherwise the candidate slot is dropped.
	MaxNodes  int
	TimeLimit time.Duration
}

// DefaultConfig returns the paper's experimental values.
func DefaultConfig() Config {
	return Config{NSites: 20, NRows: 5, MaxCells: 3, MaxCandidates: 8, MaxSlotsPerConflict: 12}
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
// is provably not worth keeping, wherever the relocation ILP would put
// them. A proven slot that is feasible still counts toward MaxCandidates,
// but it is neither relocated nor returned.
type Bound func(pos geom.Point, conflicts []int32) bool

// Stats counts the degradation-ladder outcomes of budgeted relocation
// ILPs, the solve-cache outcomes and the slots a Bound proved.
type Stats struct {
	// IncumbentKept counts relocation solves that hit their budget but
	// whose best incumbent was adopted (still a fully legal candidate).
	IncumbentKept int64
	// BudgetDropped counts candidate slots dropped because the budget
	// expired with no usable incumbent.
	BudgetDropped int64
	// WindowHits / WindowMisses are always 0: the window-result cache
	// they counted is gone. They stay until the benchmark stops reading
	// them.
	WindowHits   int64
	WindowMisses int64
	// SolveHits / SolveMisses count relocation-ILP solution cache outcomes.
	SolveHits   int64
	SolveMisses int64
	// ShortcutSolves counts relocation models answered by the unique-
	// optimum shortcut without invoking the solver.
	ShortcutSolves int64
	// Bounded counts feasible target slots a Bound proved, which were
	// counted toward MaxCandidates without a relocation ILP.
	Bounded int64
}

// Legalizer generates candidates against a design.
type Legalizer struct {
	D   *db.Design
	Cfg Config

	// Degradation counters; atomics because Run is called concurrently
	// from CR&P's worker pool.
	incumbentKept  atomic.Int64
	budgetDropped  atomic.Int64
	shortcutSolves atomic.Int64
	bounded        atomic.Int64

	// noShortcut suppresses the unique-optimum relocation shortcut; set
	// only by the differential test that certifies the shortcut against
	// the full solver.
	noShortcut bool
	// seed, when set, replaces RunScratch's body with the seed legalizer
	// the differential referees compare against; set only by tests.
	seed func(c *db.Cell) []Candidate

	// Cumulative nanoseconds inside Run and inside relocation ILP solves,
	// summed across workers; feeds the GCP phase-time breakdown.
	runNS   atomic.Int64
	solveNS atomic.Int64

	// medEpoch scopes the per-worker median memos: BeginPass bumps it, and
	// Scratch memos tagged with an older epoch are cleared on next use.
	// Zero (no BeginPass ever called) disables cross-Run reuse entirely.
	medEpoch atomic.Uint64

	// Static fast-path state, built once in New.
	wmax    int               // widest cell in the design
	obsFree [][]geom.Interval // per row: obstacle X intervals blocking sites

	solveCache *ilp.SolveCache
}

// Stats snapshots the degradation and cache counters.
func (l *Legalizer) Stats() Stats {
	s := Stats{
		IncumbentKept:  l.incumbentKept.Load(),
		BudgetDropped:  l.budgetDropped.Load(),
		ShortcutSolves: l.shortcutSolves.Load(),
		Bounded:        l.bounded.Load(),
	}
	if l.solveCache != nil {
		s.SolveHits, s.SolveMisses = l.solveCache.Stats()
	}
	return s
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
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = def.MaxCells
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	if cfg.MaxSlotsPerConflict <= 0 {
		cfg.MaxSlotsPerConflict = def.MaxSlotsPerConflict
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
	// The solve cache is only sound on budget-less solves: a budgeted
	// outcome depends on wall-clock and node order and must never leak
	// across calls (checkpoint/resume bit-identity).
	if !l.budgeted() {
		l.solveCache = ilp.NewSolveCache(0)
	}
	return l
}

// budgeted reports whether relocation ILPs run under a node or time budget.
// A budgeted solve can drop a slot the model admits, so every shortcut
// around the solver (the solve cache, the unique-optimum shortcut, the
// feasibility test of bounded slots) is off.
func (l *Legalizer) budgeted() bool {
	return l.Cfg.MaxNodes != 0 || l.Cfg.TimeLimit != 0
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
// Budgeted legalizers ignore the bound (see budgeted).
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
	if l.budgeted() {
		bound = nil
	}
	scr.reset(l.medEpoch.Load())
	w := l.windowAround(c)
	l.buildOccupancy(w, scr)
	return l.runWindow(c, w, bound, scr)
}

// runWindow enumerates target slots for the critical cell — every
// site-aligned position in the window where the cell fits inside the row
// span — ranked by the critical cell's own Eq. 11 displacement, then tries
// them in order until MaxCandidates are feasible.
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
	// (cost, Y, X) is a total order over distinct positions, so any sort
	// algorithm yields the same permutation — the generic SortFunc avoids
	// sort.Slice's per-call reflection swapper.
	slices.SortFunc(slots, func(a, b winSlot) int {
		switch {
		case a.cost != b.cost:
			if a.cost < b.cost {
				return -1
			}
			return 1
		case a.pos.Y != b.pos.Y:
			return a.pos.Y - b.pos.Y
		default:
			return a.pos.X - b.pos.X
		}
	})

	var out []Candidate
	feasible := 0
	for _, s := range slots {
		if feasible >= l.Cfg.MaxCandidates {
			break
		}
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

// displacement is Eq. 11's cost of a position: the L1 distance from the
// median in DBU. Because positions are site- and row-aligned this equals
// W_site·|Δsite| + H_row·|Δrow|, the exact form printed in the paper.
func (l *Legalizer) displacement(pos, med geom.Point) float64 {
	return float64(geom.Abs(pos.X-med.X) + geom.Abs(pos.Y-med.Y))
}

// trySlot checks whether the critical cell can take pos. If cells are in
// the way, the conflict cells (at most MaxCells-1) are relocated inside the
// window by the ILP; failure to relocate rejects the slot. A slot with at
// most two conflict cells that bound proves is only tested for feasibility
// (relocatable) and comes back with proven set and no candidate.
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
	if len(conflicts) > l.Cfg.MaxCells-1 {
		return Candidate{}, false, false // paper caps the execution at |cells|=3
	}
	if bound != nil && len(conflicts) <= 2 {
		ids := scr.boundIDs[:0]
		for _, cc := range conflicts {
			ids = append(ids, cc.ID)
		}
		slices.Sort(ids)
		scr.boundIDs = ids
		if bound(pos, ids) {
			return Candidate{}, l.relocatable(c, pos, conflicts, w, scr), true
		}
	}
	if len(conflicts) == 0 {
		return Candidate{
			Pos:          pos,
			Conflicts:    map[int32]geom.Point{},
			Displacement: l.displacement(pos, med),
		}, true, false
	}

	moves, cost, ok := l.relocateConflicts(c, pos, conflicts, w, scr)
	if !ok {
		return Candidate{}, false, false
	}
	return Candidate{
		Pos:          pos,
		Conflicts:    moves,
		Displacement: l.displacement(pos, med) + cost,
	}, true, false
}

// relocatable reports, without the ILP, whether relocateConflicts would
// relocate at most two conflict cells: with none there is nothing to move,
// one needs a slot in its filtered list, and two need a pair from their two
// lists that does not overlap. That is exactly the feasibility of the Eq. 11
// model (one slot per cell, no site taken twice), which an unbudgeted
// solve always decides.
func (l *Legalizer) relocatable(c *db.Cell, pos geom.Point, conflicts []*db.Cell, w window, scr *Scratch) bool {
	if len(conflicts) == 0 {
		return true
	}
	filt, offs, ok := l.filteredSlots(c, pos, conflicts, w, scr)
	if !ok || len(conflicts) == 1 {
		return ok
	}
	wa, wb := conflicts[0].Macro.Width, conflicts[1].Macro.Width
	for _, sa := range filt[offs[0]:offs[1]] {
		for _, sb := range filt[offs[1]:offs[2]] {
			if !slotsOverlap(sa, wa, sb, wb) {
				return true
			}
		}
	}
	return false
}

// slotsOverlap reports whether cells of widths wa and wb at slots a and b
// would share a site.
func slotsOverlap(a conSlot, wa int, b conSlot, wb int) bool {
	return a.p.Y == b.p.Y && a.p.X < b.p.X+wb && b.p.X < a.p.X+wa
}

// relocateConflicts builds and solves the Eq. 11 ILP for the conflict
// cells: each must take exactly one free slot in the window, slots must not
// overlap each other or the critical cell's target, and the objective is
// the summed displacement toward each conflict cell's median.
func (l *Legalizer) relocateConflicts(c *db.Cell, pos geom.Point, conflicts []*db.Cell, w window, scr *Scratch) (map[int32]geom.Point, float64, bool) {
	d := l.D
	sw := d.Tech.Site.Width
	filt, offs, ok := l.filteredSlots(c, pos, conflicts, w, scr)
	if !ok {
		return nil, 0, false // nowhere to put some conflict cell
	}

	// Phase 2: unique-optimum shortcut. When every conflict cell's cheapest
	// slot is strictly cheaper than its second-cheapest, the sum of the
	// minima is a lower bound on every assignment, and any other assignment
	// pays strictly more in at least one cell — so if the minima are
	// pairwise non-overlapping (site-caps hold; one-pos holds trivially)
	// they are the unique optimum and any correct solver must return
	// exactly them, with exactly this objective (component objectives are
	// accumulated in conflict order, matching the sum below). Certified
	// bit-exact against the full solver by
	// TestRelocationShortcutBitIdentical; budgeted configs skip the
	// shortcut because their degradation outcomes depend on node accounting
	// the shortcut does not perform.
	if !l.noShortcut && !l.budgeted() {
		unique := true
		for k := range conflicts {
			s := filt[offs[k]:offs[k+1]]
			if len(s) > 1 && s[0].cost >= s[1].cost {
				unique = false
				break
			}
		}
		if unique {
			feasible := true
			for a := 0; a < len(conflicts) && feasible; a++ {
				for b := a + 1; b < len(conflicts); b++ {
					if slotsOverlap(filt[offs[a]], conflicts[a].Macro.Width, filt[offs[b]], conflicts[b].Macro.Width) {
						feasible = false
						break
					}
				}
			}
			if feasible {
				l.shortcutSolves.Add(1)
				moves := make(map[int32]geom.Point, len(conflicts))
				cost := 0.0
				for k, cc := range conflicts {
					s := filt[offs[k]]
					moves[cc.ID] = s.p
					cost += s.cost
				}
				return moves, cost, true
			}
		}
	}

	// Phase 3: build the Eq. 11 model from the collected lists.
	if scr.model == nil {
		scr.model = ilp.NewModel()
	}
	m := scr.model
	m.Reset()
	vars := scr.vars[:0]
	for k, cc := range conflicts {
		slots := filt[offs[k]:offs[k+1]]
		terms := make([]ilp.Term, 0, len(slots))
		for _, s := range slots {
			v := m.AddBinary("", s.cost)
			vars = append(vars, varPos{cc.ID, int32(s.wi), s.p})
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
		}
		m.AddConstraint("one-pos", terms, ilp.EQ, 1)
	}
	scr.vars = vars[:0]

	// Site-capacity rows over a dense per-window site grid, emitted in
	// ascending (window row, site) order — exactly the order the former
	// map-and-sort bookkeeping produced by sorting its (row, x) keys, and
	// with terms in variable-creation order exactly as the map appends were,
	// so the built model is byte-identical. Window rows are ascending row
	// indices, and every slot footprint lies inside [lo, hi) of its row (the
	// freeSitesFast walk bounds), so each row's columns are a contiguous
	// block. Geometry pass: per-row first column and column offsets.
	kLo := scr.siteKLo[:0]
	colOff := scr.siteOff[:0]
	totalCols := 0
	for _, ri := range w.rows {
		row := &d.Rows[ri]
		span := row.Span(sw)
		lo := geom.SnapUp(max(w.x0, span.Lo)-row.X, sw) + row.X
		hi := min(w.x1, span.Hi)
		colOff = append(colOff, int32(totalCols))
		if hi-sw < lo {
			kLo = append(kLo, 0) // row contributes no sites
			continue
		}
		k0 := int32((lo - row.X) / sw)
		k1 := int32((hi - sw - row.X) / sw)
		kLo = append(kLo, k0)
		totalCols += int(k1-k0) + 1
	}
	colOff = append(colOff, int32(totalCols))
	scr.siteKLo, scr.siteOff = kLo, colOff

	// Counting pass over every variable's footprint sites.
	counts := scr.siteCol
	if cap(counts) < totalCols {
		counts = make([]int32, totalCols)
	} else {
		counts = counts[:totalCols]
		for i := range counts {
			counts[i] = 0
		}
	}
	scr.siteCol = counts
	nTerms := 0
	for _, vp := range vars {
		width := d.Cells[vp.cell].Macro.Width
		row := &d.Rows[w.rows[vp.wi]]
		col := colOff[vp.wi] + int32((vp.pos.X-row.X)/sw) - kLo[vp.wi]
		for x := vp.pos.X; x < vp.pos.X+width; x += sw {
			counts[col]++
			col++
			nTerms++
		}
	}
	// Exclusive prefix sum turns counts into per-column fill cursors.
	sum := int32(0)
	for i := range counts {
		n := counts[i]
		counts[i] = sum
		sum += n
	}
	// Fill pass: terms land grouped by column, in variable order within each
	// column. The arena is sized up front so the subslices handed to
	// AddConstraint stay valid for the lifetime of the model build.
	siteTerms := scr.siteTerms
	if cap(siteTerms) < nTerms {
		siteTerms = make([]ilp.Term, nTerms)
	} else {
		siteTerms = siteTerms[:nTerms]
	}
	scr.siteTerms = siteTerms
	for i, vp := range vars {
		width := d.Cells[vp.cell].Macro.Width
		row := &d.Rows[w.rows[vp.wi]]
		col := colOff[vp.wi] + int32((vp.pos.X-row.X)/sw) - kLo[vp.wi]
		for x := vp.pos.X; x < vp.pos.X+width; x += sw {
			siteTerms[counts[col]] = ilp.Term{Var: ilp.VarID(i), Coef: 1}
			counts[col]++
			col++
		}
	}
	// After the fill, counts[c] is the end offset of column c (and hence the
	// start offset of column c+1). Constraint order steers the solver's
	// tie-breaking between equal-cost optima, so the ascending emission here
	// is load-bearing for determinism.
	for c := 0; c < totalCols; c++ {
		start := int32(0)
		if c > 0 {
			start = counts[c-1]
		}
		if counts[c]-start > 1 {
			m.AddConstraint("site-cap", siteTerms[start:counts[c]], ilp.LE, 1)
		}
	}
	t0 := time.Now()
	sol := m.Solve(ilp.Options{
		MaxNodes:  l.Cfg.MaxNodes,
		TimeLimit: l.Cfg.TimeLimit,
		Cache:     l.solveCache,
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

// filteredSlots is phase 1 of relocateConflicts: each conflict cell's
// feasible slot list, sorted by the (cost, Y, X) total order — memoised
// across the target slots of this Run (conflictSlots). Slots overlapping the
// critical cell's target are filtered out here, and only the cheapest few
// kept: the ILP never benefits from far-away relocations (Eq. 11 minimises
// displacement), and the cap keeps the model tiny. Filtering the sorted list
// is the same as sorting the filtered set (total order), so the memo never
// changes the built model. Lists live concatenated in scr.conSlots with
// offs[k] marking conflict k's start and offs[len(conflicts)] the end. ok is
// false when some conflict cell has no slot left.
func (l *Legalizer) filteredSlots(c *db.Cell, pos geom.Point, conflicts []*db.Cell, w window, scr *Scratch) (filt []conSlot, offs []int32, ok bool) {
	ignore := append(scr.ignore[:0], c.ID)
	for _, cc := range conflicts {
		ignore = append(ignore, cc.ID)
	}
	scr.ignore = ignore[:0]
	targetSpan := geom.Iv(pos.X, pos.X+c.Macro.Width)
	maxSlots := l.Cfg.MaxSlotsPerConflict
	filt, offs = scr.conSlots[:0], scr.filtOff[:0]
	for _, cc := range conflicts {
		med := l.medianOf(scr, cc.ID)
		full := l.conflictSlots(cc, conflicts, med, w, ignore, scr)
		n0 := len(filt)
		offs = append(offs, int32(n0))
		for _, s := range full {
			// Same row as the target iff same Y; rows sit at distinct Y.
			if s.p.Y == pos.Y && geom.Iv(s.p.X, s.p.X+cc.Macro.Width).Overlaps(targetSpan) {
				continue
			}
			filt = append(filt, s)
			if maxSlots > 0 && len(filt)-n0 == maxSlots {
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

// Apply commits a candidate: the critical cell and its conflict cells move
// atomically. The design stays legal or the call fails without changes.
func (l *Legalizer) Apply(cellID int32, cand Candidate) error {
	moves := map[int32]geom.Point{cellID: cand.Pos}
	for id, p := range cand.Conflicts {
		moves[id] = p
	}
	return l.D.MoveCells(moves)
}
