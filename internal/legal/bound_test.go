package legal

import (
	"reflect"
	"slices"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/tech"
)

// TestRunBoundedMatchesRun referees the bounded walk against Run on
// crp_test1, crp_test2 and crp_test7: a Bound may drop the candidates at the
// slots it proves and nothing else. The slots tried, and every other
// candidate and its place in the order, stay exactly as Run returns them.
//
//   - An always-true bound returns nothing and counts one Bounded slot per
//     candidate Run returns: the feasibility test agrees with relocation
//     on every slot.
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

// TestRunBoundedHonoursSlotCap: a proven two-conflict slot is feasible only
// if relocation, which sees each conflict cell's maxSlotsPerConflict
// cheapest slots, would relocate both cells, even when a pair beyond the cut
// fits. In a 24×3-site design, the 13-site critical cell C targets row 1
// over a 1-site cell N and a 12-site cell W. W fits only in row 0's 12-site
// gap; N fits there 12 times, next to its net partner P, and 10 times more
// in C's freed row-2 span. N's 12 cheapest slots all overlap W's one slot,
// so relocation finds the target slot infeasible and the bound must not
// count it.
func TestRunBoundedHonoursSlotCap(t *testing.T) {
	tc := tech.N45()
	sw, rh := tc.Site.Width, tc.Site.Height
	const nSites = 24
	die := geom.R(0, 0, nSites*sw, 3*rh)
	var rows []db.Row
	for r := 0; r < 3; r++ {
		rows = append(rows, db.Row{Index: int32(r), X: 0, Y: r * rh, NumSites: nSites, Orient: db.N})
	}
	macro := func(name string, sites int) *db.Macro {
		return &db.Macro{Name: name, Width: sites * sw, Height: rh,
			Pins: []db.PinDef{{Name: "A", Offset: geom.Pt(sw/2, rh/2), Layer: 0}}}
	}
	m1, m12, m13 := macro("M1", 1), macro("M12", 12), macro("M13", 13)
	var cells []*db.Cell
	place := func(m *db.Macro, site, row int) int32 {
		id := int32(len(cells))
		cells = append(cells, &db.Cell{ID: id, Name: "c" + itoa(int(id)), Macro: m, Pos: geom.Pt(site*sw, row*rh)})
		return id
	}
	fill := func(lo, hi, row int) {
		for x := lo; x < hi; x++ {
			place(m1, x, row)
		}
	}
	p := place(m1, 0, 0)
	fill(13, nSites, 0) // row 0: P, the gap [1, 13), fillers
	fill(0, 4, 1)
	n := place(m1, 4, 1)
	w := place(m12, 5, 1)
	fill(17, nSites, 1) // row 1: fillers, N, W, fillers
	fill(0, 10, 2)
	c := place(m13, 10, 2)
	fill(23, nSites, 2) // row 2: fillers, C, a filler
	nets := []*db.Net{{ID: 0, Name: "pn", Pins: []db.PinRef{{Cell: p, Pin: 0}, {Cell: n, Pin: 0}}}}
	d, err := db.New("slotcap", tc, die, rows, []*db.Macro{m1, m12, m13}, cells, nets, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The cut binds: N has more than maxSlotsPerConflict slots, W has one,
	// and a pair of them does not overlap.
	target := geom.Pt(4*sw, rh)
	ignore := map[int32]bool{c: true, n: true, w: true}
	var nSlots, wSlots []geom.Point
	for ri := range d.Rows {
		y := d.Rows[ri].Y
		for _, x := range d.FreeSitesIn(int32(ri), 0, 20*sw, sw, ignore) {
			if y != target.Y {
				nSlots = append(nSlots, geom.Pt(x, y))
			}
		}
		for _, x := range d.FreeSitesIn(int32(ri), 0, 20*sw, 12*sw, ignore) {
			if y != target.Y {
				wSlots = append(wSlots, geom.Pt(x, y))
			}
		}
	}
	if len(nSlots) <= maxSlotsPerConflict || len(wSlots) != 1 ||
		!slices.ContainsFunc(nSlots, func(q geom.Point) bool { return !slotsOverlap(q, sw, wSlots[0], 12*sw) }) {
		t.Fatalf("vacuous: N slots %v, W slots %v", nSlots, wSlots)
	}

	l := New(d, DefaultConfig())
	want := l.Run(c)
	for _, cand := range want {
		if cand.Pos == target {
			t.Fatalf("Run relocated N and W for %v: %+v", target, cand)
		}
	}
	tried := false
	proveTarget := func(pos geom.Point, _ []int32) bool {
		tried = tried || pos == target
		return pos == target
	}
	b0 := l.Stats().Bounded
	got := l.RunScratch(c, NewScratch(), proveTarget)
	if !tried {
		t.Fatalf("the walk never reached %v", target)
	}
	if nb := l.Stats().Bounded - b0; nb != 0 {
		t.Fatalf("the bound counted %d feasible slots at %v, the ILP none", nb, target)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded output differs from Run's:\ngot  %+v\nwant %+v", got, want)
	}
}

// BenchmarkLegalizerRunBounded runs RunScratch over crp_test7's movable
// cells with an always-true bound, so every slot it tries is decided by
// relocatable, the feasibility test of proven slots, and none relocated.
// One BeginPass covers the whole loop, as one CR&P iteration does.
func BenchmarkLegalizerRunBounded(b *testing.B) {
	d := testDesign(b, 6)
	l := New(d, DefaultConfig())
	l.BeginPass()
	scr := NewScratch()
	always := func(geom.Point, []int32) bool { return true }
	var ids []int32
	for _, c := range d.Cells {
		if !c.Fixed {
			ids = append(ids, c.ID)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RunScratch(ids[i%len(ids)], scr, always)
	}
}
