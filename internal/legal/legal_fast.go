package legal

import (
	"slices"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
)

// This file holds the GCP fast-path machinery around Run:
//
//   - Scratch: per-worker reusable buffers (median memo, window occupancy,
//     relocation slot lists) so the parallel candidate-generation fan-out
//     allocates almost nothing per critical cell;
//   - a one-pass window occupancy snapshot that replaces the repeated
//     db.FreeSitesIn scans (bit-exact: the same blocking intervals feed the
//     same site walk);
//   - a per-Run memo of each window row's free sites with only the
//     critical cell ignored (rowFree), from which the relocation slot lists
//     (conflictSlots) and the feasibility test of bounded slots
//     (relocatable) read every row but the target row.

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

	// Slot-list buffers (runWindow, filteredSlots, relocatable).
	ignore       []int32
	winSlots     []winSlot
	conSlotsFull []conSlot
	conSlots     []conSlot
	filtOff      []int32
	sites        []geom.Point // relocatable's filtered sites

	// Per-Run memo of each window row's free sites with only the critical
	// cell ignored (see rowFree), keyed by (window row, width); spans index
	// into the rowSites arena.
	rowMemo  []rowSpan
	rowSites []int

	// Median computation scratch (db.NetMedianOfScratch).
	medScr db.MedianScratch
}

// rowSpan locates the memoised free sites of one (window row, width)
// inside Scratch.rowSites.
type rowSpan struct {
	wi, width, off, n int32
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
	cost float64
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
	s.rowMemo = s.rowMemo[:0]
	s.rowSites = s.rowSites[:0]
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

// rowFree returns the free sites of width on window row wi with only the
// critical cell crit ignored, memoised for the Run. buildOccupancy puts
// every cell in its own row only, and trySlot takes conflict cells from the
// target row only, so on every other row this is what freeSitesFast gives
// under the ignore set of any target slot of the Run.
func (l *Legalizer) rowFree(crit int32, w window, wi, width int, scr *Scratch) []int {
	for _, sp := range scr.rowMemo {
		if sp.wi == int32(wi) && sp.width == int32(width) {
			return scr.rowSites[sp.off : sp.off+sp.n : sp.off+sp.n]
		}
	}
	free := l.freeSitesFast(w, wi, w.rows[wi], width, []int32{crit}, scr)
	off, n := int32(len(scr.rowSites)), int32(len(free))
	scr.rowSites = append(scr.rowSites, free...)
	scr.rowMemo = append(scr.rowMemo, rowSpan{wi: int32(wi), width: int32(width), off: off, n: n})
	return scr.rowSites[off : off+n : off+n]
}

// conflictRowSites returns conflict cell cc's free sites on window row wi
// under ignore, the Run's critical cell c plus the conflict cells of a
// target slot on window row wt: a walk on the target row, the row memo on
// every other. The result is valid until the next call.
func (l *Legalizer) conflictRowSites(c, cc *db.Cell, w window, wi, wt int, ignore []int32, scr *Scratch) []int {
	if wi == wt {
		return l.freeSitesFast(w, wi, w.rows[wi], cc.Macro.Width, ignore, scr)
	}
	return l.rowFree(c.ID, w, wi, cc.Macro.Width, scr)
}

// conflictSlots returns conflict cell cc's full relocation-slot list for a
// target slot on window row wt — every free position in the window under
// ignore, costed against cc's median and sorted by the (cost, Y, X) total
// order — WITHOUT the per-target exclusions or the maxSlotsPerConflict cap,
// which the caller applies by filtering. The returned slice is valid until
// the next call.
func (l *Legalizer) conflictSlots(c, cc *db.Cell, med geom.Point, w window, wt int, ignore []int32, scr *Scratch) []conSlot {
	d := l.D
	slots := scr.conSlotsFull[:0]
	for wi, ri := range w.rows {
		y := d.Rows[ri].Y
		for _, x := range l.conflictRowSites(c, cc, w, wi, wt, ignore, scr) {
			p := geom.Pt(x, y)
			slots = append(slots, conSlot{p, l.displacement(p, med)})
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
	return slots
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

// Timing reports the cumulative time spent inside Run, summed wall-clock
// over concurrent workers, i.e. CPU-time-like, not elapsed time.
func (l *Legalizer) Timing() time.Duration {
	return time.Duration(l.runNS.Load())
}
