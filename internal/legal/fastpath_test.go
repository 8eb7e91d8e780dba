package legal

import (
	"math"
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ispd"
)

// testDesign generates one of the synthetic ISPD-style testcases at a small
// scale; these include obstacles, mixed cell widths and realistic nets, so
// they exercise every branch of the window fast path.
func testDesign(t *testing.T, idx int) *db.Design {
	t.Helper()
	spec := ispd.Suite(0.02)[idx]
	d, err := ispd.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFreeSitesFastMatchesFreeSitesIn checks the occupancy-snapshot site
// walk against db.FreeSitesIn over real windows: same rows, same widths,
// same ignore sets — the lists must be identical.
func TestFreeSitesFastMatchesFreeSitesIn(t *testing.T) {
	for _, idx := range []int{0, 1} {
		d := testDesign(t, idx)
		l := New(d, DefaultConfig())
		scr := NewScratch()
		checked := 0
		for cid := 0; cid < len(d.Cells); cid += 5 {
			c := d.Cells[cid]
			if c.Fixed {
				continue
			}
			w := l.windowAround(c)
			scr.reset(0)
			l.buildOccupancy(w, scr)
			for wi, ri := range w.rows {
				blocks := scr.occ[scr.occOff[wi]:scr.occOff[wi+1]]
				ignores := [][]int32{{c.ID}}
				if len(blocks) > 0 {
					ignores = append(ignores, []int32{c.ID, blocks[0].id})
				}
				for _, ign := range ignores {
					ignMap := make(map[int32]bool, len(ign))
					for _, id := range ign {
						ignMap[id] = true
					}
					for _, width := range []int{c.Macro.Width, 2 * c.Macro.Width} {
						got := append([]int(nil), l.freeSitesFast(w, wi, ri, width, ign, scr)...)
						want := d.FreeSitesIn(ri, w.x0, w.x1, width, ignMap)
						if len(got) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s cell %d row %d width %d ignore %v:\nfast %v\nwant %v",
								d.Name, cid, ri, width, ign, got, want)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no free-site lists compared", d.Name)
		}
	}
}

// newUncached returns a legalizer with the solve cache turned off.
func newUncached(d *db.Design, cfg Config) *Legalizer {
	l := New(d, cfg)
	l.solveCache = nil
	return l
}

// runAll collects every movable cell's candidates under one legalizer.
func runAll(l *Legalizer) map[int32][]Candidate {
	out := make(map[int32][]Candidate)
	for cid := range l.D.Cells {
		if cands := l.Run(int32(cid)); cands != nil {
			out[int32(cid)] = cands
		}
	}
	return out
}

// TestRunFastMatchesDense is the legalizer half of the differential-parity
// satellite, structured as the ladder documented in DESIGN.md ("Solver
// architecture"): on crp_test1 and crp_test2 the full fast path (sparse
// solver, presolve, solve cache) is compared candidate-for-
// candidate against the seed legalizer (legacy_test.go), which solves its
// relocation models with the seed solver ilp.SolveDense.
//
//	Level 1 — exact equality (the common case).
//	Level 2 — where the relocation ILP has multiple optima the sparse and
//	  dense solvers may tie-break differently; such candidates must still
//	  agree on target slot, total displacement and conflict set, and both
//	  relocation assignments must be cost-equal and legally applyable.
func TestRunFastMatchesDense(t *testing.T) {
	for _, idx := range []int{0, 1} {
		d := testDesign(t, idx)
		fast := New(d, DefaultConfig())
		dense := New(d, DefaultConfig())
		UseSeed(dense)
		gotFast := runAll(fast)
		gotDense := runAll(dense)
		if len(gotFast) != len(gotDense) {
			t.Fatalf("%s: fast produced candidates for %d cells, dense for %d",
				d.Name, len(gotFast), len(gotDense))
		}
		ties := 0
		for cid, fc := range gotFast {
			dc, ok := gotDense[cid]
			if !ok || len(fc) != len(dc) {
				t.Fatalf("%s cell %d: fast %d candidates, dense %d", d.Name, cid, len(fc), len(dc))
			}
			for i := range fc {
				// Displacements are compared within 1e-9: presolve folds
				// fixed-variable costs into the objective in a different
				// order than the dense solver's term sum, which can shift
				// the bottom bits of an otherwise identical value.
				if fc[i].Pos == dc[i].Pos && sameCost(fc[i].Displacement, dc[i].Displacement) &&
					reflect.DeepEqual(fc[i].Conflicts, dc[i].Conflicts) {
					continue // level 1
				}
				// Level 2: a pure tie-break divergence.
				if fc[i].Pos != dc[i].Pos || !sameCost(fc[i].Displacement, dc[i].Displacement) {
					t.Fatalf("%s cell %d candidate %d: not a tie:\nfast  %+v\ndense %+v",
						d.Name, cid, i, fc[i], dc[i])
				}
				cf, cd := relocationCost(d, fc[i].Conflicts), relocationCost(d, dc[i].Conflicts)
				if len(fc[i].Conflicts) != len(dc[i].Conflicts) || !sameCost(cf, cd) {
					t.Fatalf("%s cell %d candidate %d: relocations not cost-equal (%v vs %v):\nfast  %+v\ndense %+v",
						d.Name, cid, i, cf, cd, fc[i], dc[i])
				}
				for _, cand := range []Candidate{fc[i], dc[i]} {
					snap := d.Snapshot()
					if err := fast.Apply(cid, cand); err != nil {
						t.Fatalf("%s cell %d candidate %d: tie-break variant not applyable: %v",
							d.Name, cid, i, err)
					}
					if err := d.Validate(); err != nil {
						t.Fatalf("%s cell %d candidate %d: design invalid after apply: %v",
							d.Name, cid, i, err)
					}
					if err := d.Restore(snap); err != nil {
						t.Fatal(err)
					}
				}
				ties++
			}
		}
		t.Logf("%s: %d tie-break divergences (all cost-equal and legal)", d.Name, ties)
	}
}

// sameCost compares displacement objectives within 1e-9 relative tolerance.
func sameCost(a, b float64) bool {
	tol := 1e-9 * math.Max(1, math.Abs(b))
	return math.Abs(a-b) <= tol
}

// relocationCost recomputes Eq. 11's objective for a conflict assignment
// from the cells' current net medians.
func relocationCost(d *db.Design, moves map[int32]geom.Point) float64 {
	var sum float64
	for id, p := range moves {
		med := d.NetMedianOf(id)
		sum += float64(geom.Abs(p.X-med.X) + geom.Abs(p.Y-med.Y))
	}
	return sum
}

// TestRunCacheOffParity: turning off the solve cache (keeping the sparse
// solver and presolve) must not change any candidate.
func TestRunCacheOffParity(t *testing.T) {
	d := testDesign(t, 0)
	fast := New(d, DefaultConfig())
	plain := newUncached(d, DefaultConfig())
	if !reflect.DeepEqual(runAll(fast), runAll(plain)) {
		t.Fatal("cache-on vs cache-off candidates differ")
	}
}

// TestRunRepeatable: with the sorted site-cap emission, repeated fresh runs
// on identical state are bit-identical (the old map-ordered emission made
// the relocation ILP's constraint order — and thus tie-breaking — random).
func TestRunRepeatable(t *testing.T) {
	d := testDesign(t, 1)
	want := runAll(newUncached(d, DefaultConfig()))
	for i := 0; i < 5; i++ {
		if got := runAll(newUncached(d, DefaultConfig())); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from run 0", i+1)
		}
	}
}

// TestRelocationShortcutBitIdentical certifies the unique-optimum
// relocation shortcut: with the shortcut suppressed every single-conflict
// model goes through the full solver, and the outputs — selections AND
// objective bits, which feed the candidate Displacement sort — must be
// deep-equal to the shortcut path's. This is the proof obligation the
// shortcut's comment in relocateConflicts points at.
func TestRelocationShortcutBitIdentical(t *testing.T) {
	for _, idx := range []int{0, 1, 2} {
		d := testDesign(t, idx)
		// Uncached, to isolate the shortcut from cache effects.
		with := newUncached(d, DefaultConfig())
		without := newUncached(d, DefaultConfig())
		without.noShortcut = true
		got, want := runAll(with), runAll(without)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("design %d: shortcut output differs from solver output", idx)
		}
		if with.Stats().ShortcutSolves == 0 {
			t.Fatalf("design %d: shortcut never fired; test is vacuous", idx)
		}
		if without.Stats().ShortcutSolves != 0 {
			t.Fatalf("design %d: suppressed legalizer still used the shortcut", idx)
		}
	}
}
