package legal

import (
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

// TestRunBoundedMatchesRun referees the bounded walk against Run on
// crp_test1, crp_test2 and crp_test7: a Bound may drop the candidates at the
// slots it proves and nothing else. The slots tried, and every other
// candidate and its place in the order, stay exactly as Run returns them.
//
//   - An always-true bound returns nothing and counts one Bounded slot per
//     candidate Run returns: the feasibility test without the ILP agrees
//     with the ILP on every slot.
//   - A never-true bound returns Run's output.
//   - A bound on position parity returns Run's output minus the candidates
//     at the slots it proves, in order.
func TestRunBoundedMatchesRun(t *testing.T) {
	for _, idx := range []int{0, 1, 6} {
		d := testDesign(t, idx)
		l := New(d, DefaultConfig())
		scr := NewScratch()
		sw, rh := d.Tech.Site.Width, d.Tech.Site.Height

		// Non-vacuity bookkeeping for the always-true bound: calls by
		// conflict count, and two-conflict slots it proved that the
		// feasibility test then rejected (Bounded did not move).
		var seen [3]int
		infeasible2 := 0
		pending, mark := false, int64(0)
		settle := func() {
			if pending && l.Stats().Bounded == mark {
				infeasible2++
			}
			pending = false
		}
		always := func(_ geom.Point, conflicts []int32) bool {
			settle()
			seen[len(conflicts)]++
			if len(conflicts) == 2 {
				pending, mark = true, l.Stats().Bounded
			}
			return true
		}
		never := func(geom.Point, []int32) bool { return false }
		parity := func(pos geom.Point, _ []int32) bool { return (pos.X/sw+pos.Y/rh)%2 == 0 }

		// Every cell of the small designs, about 2,000 of crp_test7's.
		for cid := 0; cid < len(d.Cells); cid += 1 + len(d.Cells)/2000 {
			if d.Cells[cid].Fixed {
				continue
			}
			id := int32(cid)
			want := l.Run(id)

			b0 := l.Stats().Bounded
			if got := l.RunScratch(id, scr, always); len(got) != 0 {
				t.Fatalf("%s cell %d: always-true bound returned %d candidates", d.Name, id, len(got))
			}
			settle()
			if n := l.Stats().Bounded - b0; n != int64(len(want)) {
				t.Fatalf("%s cell %d: always-true bound counted %d slots, Run returns %d candidates",
					d.Name, id, n, len(want))
			}

			if got := l.RunScratch(id, scr, never); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cell %d: never-true bound changed the output:\ngot  %+v\nwant %+v", d.Name, id, got, want)
			}

			var kept []Candidate
			for _, cand := range want {
				if !parity(cand.Pos, nil) {
					kept = append(kept, cand)
				}
			}
			if got := l.RunScratch(id, scr, parity); !reflect.DeepEqual(got, kept) {
				t.Fatalf("%s cell %d: parity bound output is not Run's minus the proven slots:\ngot  %+v\nwant %+v",
					d.Name, id, got, kept)
			}
		}
		t.Logf("%s: bound saw %d/%d/%d slots with 0/1/2 conflicts; %d proven two-conflict slots infeasible",
			d.Name, seen[0], seen[1], seen[2], infeasible2)
		if seen[1] == 0 || seen[2] == 0 || infeasible2 == 0 {
			t.Fatalf("%s: vacuous referee: one-conflict %d, two-conflict %d, infeasible two-conflict %d",
				d.Name, seen[1], seen[2], infeasible2)
		}
	}
}

// TestRunBoundedBudgetedIgnoresBound: a budgeted legalizer may drop a
// feasible slot when its relocation ILP runs out of budget, which the
// feasibility test cannot predict, so it walks unbounded.
func TestRunBoundedBudgetedIgnoresBound(t *testing.T) {
	d := testDesign(t, 0)
	cfg := DefaultConfig()
	cfg.MaxNodes = 1
	l := New(d, cfg)
	always := func(geom.Point, []int32) bool { return true }
	for cid, c := range d.Cells {
		if c.Fixed {
			continue
		}
		id := int32(cid)
		if want, got := l.Run(id), l.RunScratch(id, nil, always); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d: budgeted legalizer applied the bound", id)
		}
	}
	if n := l.Stats().Bounded; n != 0 {
		t.Fatalf("budgeted legalizer counted %d bounded slots", n)
	}
}
