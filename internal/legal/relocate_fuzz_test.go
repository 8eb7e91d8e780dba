package legal

import (
	"math"
	"slices"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/tech"
)

// fuzzRows × fuzzSites is FuzzRelocate's window, the paper's N_row × N_site.
const fuzzRows, fuzzSites = 5, 20

// FuzzRelocate referees relocation, Eq. 11 by enumeration, against the
// Eq. 11 ILP built here (one-pos rows, site-cap rows) and solved by
// ilp.Model.Solve. The input is one or two conflict cells on a
// fuzzRows × fuzzSites window of N32 sites (the synthetic suite's node):
// each cell's width (1–10 sites), its median (DBU from the window's
// lower-left corner) and its slots, one byte each (row = b%100/20,
// site = b%20; slots that overrun the window or repeat are skipped, the
// first maxSlotsPerConflict kept), costed and sorted by (cost, Y, X) as
// filteredSlots sorts them. Both must find the
// model feasible or neither; the objectives must agree within 1e-9
// relative; and the enumerated assignment must use listed slots, no two on
// one site, at exactly its reported cost.
func FuzzRelocate(f *testing.F) {
	// One conflict cell.
	f.Add(false, uint8(1), uint8(0), int32(2940), int32(4900), int32(0), int32(0),
		[]byte{41, 52, 50, 9, 30}, []byte(nil))
	// Two 10-site cells whose every pair of row-2 slots overlaps.
	f.Add(true, uint8(9), uint8(9), int32(1400), int32(4900), int32(2800), int32(4900),
		[]byte{45, 46}, []byte{43, 44, 45, 46, 47, 48, 49})
	// Equal-cost tie: both 1-site cells want site 10 of row 2; sites 9 and
	// 11 cost the same, and two pairs reach the optimum.
	f.Add(true, uint8(0), uint8(0), int32(2800), int32(3920), int32(2800), int32(3920),
		[]byte{49, 51}, []byte{49, 51})
	// Round-off: a relocation model of crp_test1–10 at scale 0.004, k=10,
	// where the ILP's objective reads 9309.9999999999982 for slots that
	// cost 1120 and 8190.
	f.Add(true, uint8(5), uint8(1), int32(2940), int32(8820), int32(6300), int32(8330),
		[]byte{90, 91}, []byte{95, 94, 93, 92, 91, 90, 49, 9})
	f.Fuzz(func(t *testing.T, two bool, wa, wb uint8, ax, ay, bx, by int32, sa, sb []byte) {
		site := tech.N32().Site
		raw := [][]byte{sa}
		widths := [maxCells - 1]int{(1 + int(wa)%10) * site.Width}
		meds := []geom.Point{geom.Pt(int(ax), int(ay))}
		if two {
			raw = append(raw, sb)
			widths[1] = (1 + int(wb)%10) * site.Width
			meds = append(meds, geom.Pt(int(bx), int(by)))
		}
		var filt []conSlot
		offs := []int32{0}
		for k, bs := range raw {
			var list []conSlot
			for _, b := range bs {
				if len(list) == maxSlotsPerConflict {
					break
				}
				p := geom.Pt(int(b)%fuzzSites*site.Width, int(b)%(fuzzRows*fuzzSites)/fuzzSites*site.Height)
				if p.X+widths[k] > fuzzSites*site.Width || slices.ContainsFunc(list, func(s conSlot) bool { return s.p == p }) {
					continue
				}
				cost := float64(geom.Abs(p.X-meds[k].X) + geom.Abs(p.Y-meds[k].Y))
				list = append(list, conSlot{p, cost})
			}
			slices.SortFunc(list, func(a, b conSlot) int {
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
			filt = append(filt, list...)
			offs = append(offs, int32(len(filt)))
		}

		pick, cost, ok := relocation(filt, offs, widths)
		sol := eq11Model(filt, offs, widths, site.Width).Solve(ilp.Options{})
		if ok != (sol.Status == ilp.Optimal) {
			t.Fatalf("enumeration feasible %v, ILP %v; slots %v offs %v widths %v", ok, sol.Status, filt, offs, widths)
		}
		if !ok {
			return
		}
		if math.Abs(cost-sol.Objective) > 1e-9*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("enumeration cost %v, ILP objective %v; slots %v offs %v widths %v", cost, sol.Objective, filt, offs, widths)
		}
		sum := 0.0
		for k := 0; k < len(offs)-1; k++ {
			if pick[k] < offs[k] || pick[k] >= offs[k+1] {
				t.Fatalf("conflict %d took slot %d, outside its list [%d, %d)", k, pick[k], offs[k], offs[k+1])
			}
			sum += filt[pick[k]].cost
		}
		if sum != cost {
			t.Fatalf("picked slots cost %v, enumeration reports %v", sum, cost)
		}
		if len(offs) == 3 && slotsOverlap(filt[pick[0]].p, widths[0], filt[pick[1]].p, widths[1]) {
			t.Fatalf("picked slots %v and %v overlap", filt[pick[0]].p, filt[pick[1]].p)
		}
	})
}

// eq11Model builds Eq. 11 over the slot lists as an ILP: a binary per slot
// at its cost, one one-pos row per conflict cell, and one site-cap row per
// site (ascending Y, then X) that two or more slots cover.
func eq11Model(filt []conSlot, offs []int32, widths [maxCells - 1]int, sw int) *ilp.Model {
	m := ilp.NewModel()
	covers := map[geom.Point][]ilp.Term{}
	for k := 0; k < len(offs)-1; k++ {
		var terms []ilp.Term
		for _, s := range filt[offs[k]:offs[k+1]] {
			v := m.AddBinary("", s.cost)
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
			for x := s.p.X; x < s.p.X+widths[k]; x += sw {
				q := geom.Pt(x, s.p.Y)
				covers[q] = append(covers[q], ilp.Term{Var: v, Coef: 1})
			}
		}
		m.AddConstraint("one-pos", terms, ilp.EQ, 1)
	}
	sites := make([]geom.Point, 0, len(covers))
	for q := range covers {
		sites = append(sites, q)
	}
	slices.SortFunc(sites, func(a, b geom.Point) int {
		if a.Y != b.Y {
			return a.Y - b.Y
		}
		return a.X - b.X
	})
	for _, q := range sites {
		if terms := covers[q]; len(terms) > 1 {
			m.AddConstraint("site-cap", terms, ilp.LE, 1)
		}
	}
	return m
}
