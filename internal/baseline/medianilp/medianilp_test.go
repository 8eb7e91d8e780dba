package medianilp

import (
	"context"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

func fixture(t testing.TB, cells, nets int, seed int64) (*db.Design, *grid.Grid, *global.Router) {
	t.Helper()
	d, err := ispd.Generate(ispd.Spec{
		Name: "mb", Node: "n45", Cells: cells, Nets: nets,
		Utilisation: 0.85, Hotspots: 1, Seed: seed,
		RefinePasses: -1, // raw placement: median moves must exist
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	return d, g, r
}

func TestRunMovesCellsTowardMedians(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 1)
	hpwlBefore := d.TotalHPWL()
	res := Run(context.Background(), d, g, r, DefaultConfig())
	if res.Failed {
		t.Fatal("unbudgeted run failed")
	}
	if res.MovedCells == 0 {
		t.Fatal("no cells moved — median targets never free?")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design illegal after baseline run: %v", err)
	}
	// Median moves reduce star wirelength: total HPWL should not grow
	// much (it is exactly what [18]'s cost optimises, modulo the one-cell
	// approximation).
	if after := d.TotalHPWL(); after > hpwlBefore*102/100 {
		t.Errorf("HPWL grew from %d to %d", hpwlBefore, after)
	}
}

func TestRunKeepsNetsRouted(t *testing.T) {
	d, g, r := fixture(t, 250, 200, 2)
	Run(context.Background(), d, g, r, DefaultConfig())
	for _, n := range d.Nets {
		if n.Degree() >= 2 && r.Routes[n.ID] == nil {
			t.Fatalf("net %d lost its route", n.ID)
		}
	}
	_ = g
}

// TestCancelledRunRestoresState: a run whose context is already cancelled
// fails and leaves the placement as it found it.
func TestCancelledRunRestoresState(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 3)
	snapHPWL := d.TotalHPWL()
	pos0 := d.Cells[0].Pos
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, d, g, r, DefaultConfig())
	if !res.Failed {
		t.Fatal("cancelled run did not fail")
	}
	if res.MovedCells != 0 {
		t.Error("failed run reported moved cells")
	}
	if d.TotalHPWL() != snapHPWL || d.Cells[0].Pos != pos0 {
		t.Error("failed run did not restore the placement")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("restored design invalid: %v", err)
	}
}

// cancelAfter is a context whose Err reports Canceled from its nth call
// on, so a test can cancel a run at an exact check.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideClusterSolve: a cancellation that lands while a cluster
// ILP is being solved stops the solve at its next node, not after the
// cluster. The context turns Canceled at its second check — the first is
// Run's own, before cluster 1; the second is the solve's first node — and
// the run fails after one solver node with the design restored.
func TestCancelInsideClusterSolve(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 3)
	snapHPWL := d.TotalHPWL()
	res := Run(&cancelAfter{Context: context.Background(), n: 2}, d, g, r, DefaultConfig())
	if !res.Failed || res.MovedCells != 0 {
		t.Fatalf("run cancelled in its first solve: failed %v, moved %d", res.Failed, res.MovedCells)
	}
	if res.Clusters != 1 || res.SolverNodes != 1 {
		t.Errorf("cancelled solve ran on: %d clusters, %d solver nodes, want 1 and 1", res.Clusters, res.SolverNodes)
	}
	if d.TotalHPWL() != snapHPWL {
		t.Error("failed run did not restore the placement")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("restored design invalid: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (int, int64) {
		d, g, r := fixture(t, 200, 150, 4)
		res := Run(context.Background(), d, g, r, DefaultConfig())
		return res.MovedCells, d.TotalHPWL()
	}
	m1, h1 := run()
	m2, h2 := run()
	if m1 != m2 || h1 != h2 {
		t.Errorf("same seed diverged: %d/%d moved, HPWL %d/%d", m1, m2, h1, h2)
	}
}

func TestClusterCount(t *testing.T) {
	d, g, r := fixture(t, 200, 150, 5)
	cfg := DefaultConfig()
	cfg.ClusterSize = 50
	res := Run(context.Background(), d, g, r, cfg)
	movable := 0
	for _, c := range d.Cells {
		if !c.Fixed {
			movable++
		}
	}
	want := (movable + 49) / 50
	if res.Clusters != want {
		t.Errorf("clusters = %d, want %d", res.Clusters, want)
	}
}

func TestNearestFreeSlotPrefersMedian(t *testing.T) {
	d, _, _ := fixture(t, 150, 100, 6)
	for _, c := range d.Cells[:20] {
		med := d.NetMedianOf(c.ID)
		for _, slot := range nearestFreeSlots(d, c, med) {
			if err := d.CheckLegal(c, slot); err != nil {
				t.Fatalf("cell %d: slot %v illegal: %v", c.ID, slot, err)
			}
			row, _ := d.RowAt(slot.Y)
			if !d.IsFreeFor(row.Index, slot.X, slot.X+c.Macro.Width, map[int32]bool{c.ID: true}) {
				t.Fatalf("cell %d: slot %v not free", c.ID, slot)
			}
		}
	}
}

func BenchmarkBaselineRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, g, r := fixture(b, 300, 250, 7)
		b.StartTimer()
		Run(context.Background(), d, g, r, DefaultConfig())
	}
}
