package legal

import (
	"slices"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
)

// This file holds the GCP fast-path machinery around Run:
//
//   - Scratch: per-worker reusable buffers (median memo, window occupancy,
//     relocation-model arenas) so the parallel candidate-generation fan-out
//     allocates almost nothing per critical cell;
//   - a one-pass window occupancy snapshot that replaces the repeated
//     db.FreeSitesIn scans (bit-exact: the same blocking intervals feed the
//     same site walk);
//   - a per-Run memo of each conflict cell's relocation-slot list
//     (conflictSlots), shared by the relocation ILP and the combinatorial
//     feasibility test of bounded slots (relocatable).

// Scratch holds reusable per-worker state for RunScratch. It must not be
// shared between concurrent callers.
type Scratch struct {
	med      map[int32]geom.Point
	medEpoch uint64
	occ      []occBlock
	occOff   []int
	obs      [][]geom.Interval
	rowOK    []bool
	blocks   []geom.Interval
	free     []int
	boundIDs []int32 // the conflict IDs handed to a Bound, ascending

	// Relocation-model build buffers (relocateConflicts). The site* slices
	// back the dense per-window site grid that replaced the former
	// map-and-sort site-capacity bookkeeping.
	ignore    []int32
	winSlots  []winSlot
	conSlots  []conSlot
	filtOff   []int32
	vars      []varPos
	siteKLo   []int32
	siteCol   []int32
	siteOff   []int32
	siteTerms []ilp.Term
	model     *ilp.Model

	// Per-Run memo of each conflict cell's full sorted relocation-slot list
	// (see conflictSlots). Keyed by the cell plus the other ignored conflict
	// cells; spans index into the memoSlots arena.
	slotMemo     map[[3]int32]memoSpan
	memoSlots    []conSlot
	conSlotsFull []conSlot

	// Median computation scratch (db.NetMedianOfScratch).
	medScr db.MedianScratch
}

// memoSpan locates one memoised slot list inside Scratch.memoSlots.
type memoSpan struct {
	off, n int32
}

// winSlot is one candidate target slot for the critical cell.
type winSlot struct {
	pos  geom.Point
	wi   int
	cost float64
}

// conSlot is one candidate relocation slot for a conflict cell.
type conSlot struct {
	p    geom.Point
	wi   int
	cost float64
}

// varPos maps a relocation-model variable back to (cell, slot).
type varPos struct {
	cell int32
	wi   int32
	pos  geom.Point
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch {
	return &Scratch{med: make(map[int32]geom.Point, 64)}
}

func (s *Scratch) reset(epoch uint64) {
	// Medians depend only on cell positions, so they stay valid for as
	// long as the caller's placement pass does: between BeginPass calls
	// the memo is shared across Runs. A zero epoch means the caller never
	// declared a pass — then nothing is known about mutations between
	// Runs and the memo is cleared every time (the conservative default).
	if epoch == 0 || s.medEpoch != epoch {
		clear(s.med)
		s.medEpoch = epoch
	}
	s.occ = s.occ[:0]
	s.occOff = s.occOff[:0]
	clear(s.slotMemo)
	s.memoSlots = s.memoSlots[:0]
}

// occBlock is one cell's footprint inside the window occupancy snapshot.
type occBlock struct {
	a, b  int
	id    int32
	fixed bool
}

// medianOf memoises db.NetMedianOf across the Runs of one legalizer pass
// (see BeginPass): the same cell's median used to be recomputed once per
// candidate slot, then once per Run.
func (l *Legalizer) medianOf(scr *Scratch, id int32) geom.Point {
	if p, ok := scr.med[id]; ok {
		return p
	}
	p := l.D.NetMedianOfScratch(id, &scr.medScr)
	scr.med[id] = p
	return p
}

// buildOccupancy snapshots, per window row, every cell whose footprint can
// block a slot in the window: CellsInRowRange over [x0, x1+wmax) is a
// superset of every [lo, hi+w) range FreeSitesIn would scan, and blocks
// outside the walked site range never change the overlap predicate.
func (l *Legalizer) buildOccupancy(w window, scr *Scratch) {
	d := l.D
	for _, ri := range w.rows {
		scr.occOff = append(scr.occOff, len(scr.occ))
		for _, id := range d.CellsInRowRange(ri, w.x0, w.x1+l.wmax) {
			cc := d.Cells[id]
			scr.occ = append(scr.occ, occBlock{
				a: cc.Pos.X, b: cc.Pos.X + cc.Macro.Width, id: id, fixed: cc.Fixed,
			})
		}
	}
	scr.occOff = append(scr.occOff, len(scr.occ))
}

// freeSitesFast reproduces db.FreeSitesIn exactly from the occupancy
// snapshot: same lo/hi arithmetic, same blocking intervals (non-ignored
// cells plus this row's obstacles), same ascending site walk — without the
// per-call range query, allocation, and whole-design obstacle scan. The
// result slice aliases scr.free and is valid until the next call.
func (l *Legalizer) freeSitesFast(w window, wi int, ri int32, width int, ignore []int32, scr *Scratch) []int {
	d := l.D
	r := &d.Rows[ri]
	sw := d.Tech.Site.Width
	span := r.Span(sw)
	lo := geom.SnapUp(max(w.x0, span.Lo)-r.X, sw) + r.X
	hi := min(w.x1, span.Hi)

	// A block [Lo, Hi) forbids exactly the sites x with Lo < x+width and
	// x < Hi, i.e. the open interval (Lo-width, Hi) of start positions.
	// Collecting those, merging strictly overlapping ones into a disjoint
	// ascending union, and sweeping one pointer along the site walk visits
	// each site and each block O(1) times instead of scanning every block
	// per site — with an identical free-site set by construction.
	blocks := scr.blocks[:0]
	for _, blk := range scr.occ[scr.occOff[wi]:scr.occOff[wi+1]] {
		ignored := false
		for _, id := range ignore {
			if blk.id == id {
				ignored = true
				break
			}
		}
		if !ignored {
			blocks = append(blocks, geom.Interval{Lo: blk.a - width, Hi: blk.b})
		}
	}
	for _, iv := range l.obsFree[ri] {
		blocks = append(blocks, geom.Interval{Lo: iv.Lo - width, Hi: iv.Hi})
	}
	slices.SortFunc(blocks, func(a, b geom.Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		default:
			return 0
		}
	})
	merged := 0
	for _, b := range blocks {
		// Open intervals union only under strict overlap; a shared endpoint
		// leaves the endpoint itself unblocked.
		if merged > 0 && b.Lo < blocks[merged-1].Hi {
			if b.Hi > blocks[merged-1].Hi {
				blocks[merged-1].Hi = b.Hi
			}
			continue
		}
		blocks[merged] = b
		merged++
	}
	blocks = blocks[:merged]
	scr.blocks = blocks[:0]

	out := scr.free[:0]
	p := 0
	for x := lo; x+width <= hi; x += sw {
		for p < len(blocks) && blocks[p].Hi <= x {
			p++
		}
		if p == len(blocks) || blocks[p].Lo >= x {
			out = append(out, x)
		}
	}
	scr.free = out
	return out
}

// conflictSlots returns conflict cell cc's full relocation-slot list —
// every free position in the window under the ignore set, costed against
// cc's median and sorted by the (cost, Y, X) total order — WITHOUT the
// per-target exclusions or the MaxSlotsPerConflict cap, which the caller
// applies by filtering. The list is a pure function of (cc, ignore set)
// for the duration of one Run (occupancy snapshot, obstacles and medians
// are all fixed), so it is memoised across the many target slots trySlot
// probes: sliding the critical cell's target across a conflict cell
// re-derives the same list once per target otherwise. The returned slice
// is valid until the next call.
func (l *Legalizer) conflictSlots(cc *db.Cell, conflicts []*db.Cell, med geom.Point, w window, ignore []int32, scr *Scratch) []conSlot {
	// The memo key is cc plus the other ignored conflict cells (the
	// critical cell is in every ignore set of a Run). Conflict sets larger
	// than the key just bypass the memo.
	memoable := len(conflicts) <= 3
	var key [3]int32
	if memoable {
		key = [3]int32{cc.ID, -1, -1}
		k := 1
		for _, o := range conflicts {
			if o.ID != cc.ID {
				key[k] = o.ID
				k++
			}
		}
		if scr.slotMemo == nil {
			scr.slotMemo = make(map[[3]int32]memoSpan, 32)
		} else if sp, ok := scr.slotMemo[key]; ok {
			return scr.memoSlots[sp.off : sp.off+sp.n]
		}
	}

	d := l.D
	slots := scr.conSlotsFull[:0]
	for wi, ri := range w.rows {
		row := &d.Rows[ri]
		for _, x := range l.freeSitesFast(w, wi, ri, cc.Macro.Width, ignore, scr) {
			p := geom.Pt(x, row.Y)
			slots = append(slots, conSlot{p, wi, l.displacement(p, med)})
		}
	}
	scr.conSlotsFull = slots[:0]
	// (cost, Y, X) is a total order over distinct positions; any sort
	// algorithm yields the same permutation.
	slices.SortFunc(slots, func(a, b conSlot) int {
		switch {
		case a.cost != b.cost:
			if a.cost < b.cost {
				return -1
			}
			return 1
		case a.p.Y != b.p.Y:
			return a.p.Y - b.p.Y
		default:
			return a.p.X - b.p.X
		}
	})
	if !memoable {
		return slots
	}
	off := int32(len(scr.memoSlots))
	scr.memoSlots = append(scr.memoSlots, slots...)
	scr.slotMemo[key] = memoSpan{off: off, n: int32(len(slots))}
	return scr.memoSlots[off : off+int32(len(slots))]
}

// BeginPass declares the start of a candidate-generation pass: the caller
// promises not to move any cell until the next BeginPass. Net medians are a
// pure function of cell positions, so for the duration of the pass every
// worker's median memo stays valid across Runs — without the declaration
// each Run conservatively recomputes the medians it needs. CR&P calls this
// once per iteration, right before the GCP fan-out.
func (l *Legalizer) BeginPass() {
	l.medEpoch.Add(1)
}

// Timing reports the cumulative CPU time spent inside Run across all
// workers, and the part of it spent inside relocation ILP solves. The
// difference is pure candidate-generation work. Both are summed wall-clock
// over concurrent workers, i.e. CPU-time-like, not elapsed time.
func (l *Legalizer) Timing() (run, solve time.Duration) {
	return time.Duration(l.runNS.Load()), time.Duration(l.solveNS.Load())
}
