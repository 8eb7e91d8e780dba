package legal

import (
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/ispd"
)

// testDesign generates one of the synthetic ISPD-style testcases at a small
// scale; these include obstacles, mixed cell widths and realistic nets, so
// they exercise every branch of the window fast path.
func testDesign(tb testing.TB, idx int) *db.Design {
	tb.Helper()
	spec := ispd.Suite(0.02)[idx]
	d, err := ispd.Generate(spec)
	if err != nil {
		tb.Fatal(err)
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
// ladder documented in DESIGN.md ("Solver architecture"): on crp_test1 and
// crp_test2 the fast path is compared candidate-for-candidate against the
// seed legalizer (legacy_test.go), which collects its own slot lists and
// relocates by its own brute-force scan under the same tie rule. Every
// candidate must be identical, relocations and displacement bits included.
func TestRunFastMatchesDense(t *testing.T) {
	for _, idx := range []int{0, 1} {
		d := testDesign(t, idx)
		fast := New(d, DefaultConfig())
		dense := New(d, DefaultConfig())
		UseSeed(dense)
		if got, want := runAll(fast), runAll(dense); !reflect.DeepEqual(got, want) {
			for cid, fc := range got {
				if !reflect.DeepEqual(fc, want[cid]) {
					t.Fatalf("%s cell %d:\nfast %+v\nseed %+v", d.Name, cid, fc, want[cid])
				}
			}
			t.Fatalf("%s: fast produced candidates for %d cells, seed for %d", d.Name, len(got), len(want))
		}
	}
}

// TestRunRepeatable: repeated fresh runs on identical state are
// bit-identical.
func TestRunRepeatable(t *testing.T) {
	d := testDesign(t, 1)
	want := runAll(New(d, DefaultConfig()))
	for i := 0; i < 5; i++ {
		if got := runAll(New(d, DefaultConfig())); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from run 0", i+1)
		}
	}
}
