package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

func die() geom.Rect { return geom.R(0, 0, 1000, 1000) }

// regionOf returns the index of the region containing critical cell i.
func regionOf(t *testing.T, regions []Region, i int) int {
	t.Helper()
	for ri, r := range regions {
		for _, m := range r.Members {
			if m == i {
				return ri
			}
		}
	}
	t.Fatalf("cell %d in no region", i)
	return -1
}

func TestPartitionEmptyInput(t *testing.T) {
	if got := Partition(Input{Die: die(), Targets: 8}); got != nil {
		t.Fatalf("empty input produced regions: %v", got)
	}
}

func TestPartitionSingleTargetIsOneRegion(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(900, 900, 990, 990)}
	for _, targets := range []int{0, 1, -3} {
		regions := Partition(Input{Die: die(), Targets: targets, Rects: rects})
		if len(regions) != 1 || len(regions[0].Members) != 2 {
			t.Fatalf("targets=%d: want one region with both cells, got %v", targets, regions)
		}
	}
}

func TestPartitionDegenerateDieIsOneRegion(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(50, 50, 60, 60)}
	regions := Partition(Input{Die: geom.Rect{}, Targets: 16, Rects: rects})
	if len(regions) != 1 || len(regions[0].Members) != 2 {
		t.Fatalf("degenerate die must collapse to one region, got %v", regions)
	}
}

func TestPartitionDisjointCornersSplit(t *testing.T) {
	// Four compact rectangles in the four die corners: any grid with >= 2x2
	// coarse cells keeps them apart.
	rects := []geom.Rect{
		geom.R(0, 0, 50, 50),
		geom.R(950, 0, 1000, 50),
		geom.R(0, 950, 50, 1000),
		geom.R(950, 950, 1000, 1000),
	}
	regions := Partition(Input{Die: die(), Targets: 4, Rects: rects})
	if len(regions) != 4 {
		t.Fatalf("want 4 singleton regions, got %d: %v", len(regions), regions)
	}
	for i, r := range regions {
		if len(r.Members) != 1 || r.Members[0] != i {
			t.Errorf("region %d: want singleton member %d (smallest-member order), got %v", i, i, r.Members)
		}
		if r.Bounds != rects[i] {
			t.Errorf("region %d: bounds %v != member rect %v", i, r.Bounds, rects[i])
		}
	}
}

// TestPartitionOverlapNeverSplits is the soundness property: two critical
// cells whose halo-inflated rectangles overlap must share a region at EVERY
// target count — the grid resolution may merge disjoint rectangles, never
// split overlapping ones.
func TestPartitionOverlapNeverSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Intn(950), rng.Intn(950)
			rects[i] = geom.R(x, y, x+10+rng.Intn(120), y+10+rng.Intn(120))
		}
		halo := rng.Intn(3) * 5
		for _, targets := range []int{1, 2, 4, 9, 16, 64, 1024} {
			regions := Partition(Input{Die: die(), Targets: targets, Halo: halo, Rects: rects})
			total := 0
			for _, r := range regions {
				if !sort.IntsAreSorted(r.Members) {
					t.Fatalf("trial %d targets %d: members not ascending: %v", trial, targets, r.Members)
				}
				total += len(r.Members)
			}
			if total != n {
				t.Fatalf("trial %d targets %d: %d members across regions, want %d", trial, targets, total, n)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rects[i].Expand(halo).Overlaps(rects[j].Expand(halo)) &&
						regionOf(t, regions, i) != regionOf(t, regions, j) {
						t.Fatalf("trial %d targets %d: overlapping rects %d/%d split across regions",
							trial, targets, i, j)
					}
				}
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rects := make([]geom.Rect, 40)
	for i := range rects {
		x, y := rng.Intn(900), rng.Intn(900)
		rects[i] = geom.R(x, y, x+20+rng.Intn(80), y+20+rng.Intn(80))
	}
	in := Input{Die: die(), Targets: 16, Halo: 5, Rects: rects}
	a := Partition(in)
	b := Partition(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same input produced different partitions")
	}
	for ri := 1; ri < len(a); ri++ {
		if a[ri].Members[0] <= a[ri-1].Members[0] {
			t.Fatalf("regions not ordered by smallest member: %v then %v", a[ri-1].Members, a[ri].Members)
		}
	}
}

func TestPartitionBoundsCoverMembers(t *testing.T) {
	rects := []geom.Rect{
		geom.R(10, 10, 60, 60),
		geom.R(40, 40, 120, 90),
		geom.R(800, 800, 900, 880),
	}
	halo := 7
	regions := Partition(Input{Die: die(), Targets: 16, Halo: halo, Rects: rects})
	for _, r := range regions {
		for _, m := range r.Members {
			inf := rects[m].Expand(halo)
			if r.Bounds.Union(inf) != r.Bounds {
				t.Errorf("region bounds %v do not cover member %d's inflated rect %v", r.Bounds, m, inf)
			}
		}
	}
}
