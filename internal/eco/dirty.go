package eco

import "github.com/crp-eda/crp/internal/geom"

// Tracker maintains the ECO dirty region: a set of halo-inflated rectangles
// covering everything a delta (and the re-run's own moves) perturbed. A cell
// whose neighbourhood is disjoint from the dirty region cannot have been
// affected by the edit, so the region scopes which cells are re-labeling
// candidates.
//
// The region only ever grows. Add reports whether coverage actually grew,
// which is the convergence ladder's early-exit signal: when a whole re-label
// round's moves land inside the existing region, the dirty frontier has
// stopped expanding.
type Tracker struct {
	die   geom.Rect
	halo  int // DBU inflation applied to every added rect
	rects []geom.Rect
}

// NewTracker creates an empty tracker over the die with the given halo
// (DBU added on every side of each added rect).
func NewTracker(die geom.Rect, haloDBU int) *Tracker {
	return &Tracker{die: die, halo: haloDBU}
}

// Add unions r (halo-inflated, die-clipped) into the dirty region,
// coalescing overlapping rectangles, and reports whether coverage grew.
func (t *Tracker) Add(r geom.Rect) bool {
	r = r.Expand(t.halo).Intersect(t.die)
	if r.Empty() {
		return false
	}
	for _, have := range t.rects {
		if have.ContainsRect(r) {
			return false
		}
	}
	// Coalesce with bounded waste: union r into an overlapping rect only when
	// the bounding box is not much bigger than the parts (union ≤ 1.5× the
	// summed areas). Unconditional bounding-box merging snowballs — two small
	// perturbations on opposite sides of the die would coalesce into a rect
	// covering everything between them, and a few rounds of that marks the
	// whole die dirty. Bounded merging keeps the region an accurate union of
	// genuinely-local patches; rects may overlap slightly, which only makes
	// the region conservative, never too small.
	for {
		merged := false
		keep := t.rects[:0]
		for _, have := range t.rects {
			if have.Overlaps(r) && mergeOK(r, have) {
				r = r.Union(have)
				merged = true
			} else {
				keep = append(keep, have)
			}
		}
		t.rects = keep
		if !merged {
			break
		}
	}
	t.rects = append(t.rects, r)
	t.capRects()
	return true
}

// mergeOK bounds coalescing waste: the bounding box of a and b may be at
// most 1.5× their summed areas.
func mergeOK(a, b geom.Rect) bool {
	return 2*a.Union(b).Area() <= 3*(a.Area()+b.Area())
}

// maxTrackerRects caps the rect list so Overlaps stays cheap when called per
// cell per round; past the cap the pair whose bounding box wastes the least
// area is merged unconditionally.
const maxTrackerRects = 48

func (t *Tracker) capRects() {
	for len(t.rects) > maxTrackerRects {
		bi, bj, best := 0, 1, int64(-1)
		for i := 0; i < len(t.rects); i++ {
			for j := i + 1; j < len(t.rects); j++ {
				waste := t.rects[i].Union(t.rects[j]).Area() - t.rects[i].Area() - t.rects[j].Area()
				if best < 0 || waste < best {
					bi, bj, best = i, j, waste
				}
			}
		}
		t.rects[bi] = t.rects[bi].Union(t.rects[bj])
		t.rects = append(t.rects[:bj], t.rects[bj+1:]...)
	}
}

// Overlaps reports whether r intersects the dirty region — the scope
// predicate the local re-label rung hands to crp.Config.Scope.
func (t *Tracker) Overlaps(r geom.Rect) bool {
	for _, have := range t.rects {
		if have.Overlaps(r) {
			return true
		}
	}
	return false
}

// Widen grows the region for the ladder's second rung: every tracked rect
// is inflated by extra DBU (die-clipped), and the halo for future adds grows
// by the same amount.
func (t *Tracker) Widen(extra int) {
	t.halo += extra
	old := t.rects
	t.rects = nil
	save := t.halo
	t.halo = extra // re-Add inflates each existing rect by exactly extra
	for _, r := range old {
		t.Add(r)
	}
	t.halo = save
}

// CoversDie reports whether the dirty region has grown to the whole die —
// at that point local scoping buys nothing and the ladder should fall back
// to a full run.
func (t *Tracker) CoversDie() bool {
	for _, r := range t.rects {
		if r.ContainsRect(t.die) {
			return true
		}
	}
	return false
}

// Count returns the number of tracked dirty rectangles.
func (t *Tracker) Count() int { return len(t.rects) }

// Area returns the summed area of the tracked rects in DBU² — an upper
// bound on dirty coverage, since bounded coalescing can keep overlapping
// rects separate.
func (t *Tracker) Area() int64 {
	var a int64
	for _, r := range t.rects {
		a += r.Area()
	}
	return a
}
