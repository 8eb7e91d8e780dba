package crp

import (
	"context"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// fixture builds a routed benchmark-style design ready for CR&P.
func fixture(t testing.TB, cells, nets int, seed int64) (*db.Design, *grid.Grid, *global.Router) {
	t.Helper()
	d, err := ispd.Generate(ispd.Spec{
		Name: "crp_fixture", Node: "n45", Cells: cells, Nets: nets,
		Utilisation: 0.88, Hotspots: 2, IOFraction: 0.03, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	return d, g, r
}

// iterate drives e through Cfg.Iterations iterations, stopping once the
// engine latches Broken, and folds their statistics into a Result.
func iterate(e *Engine) *Result {
	res := &Result{}
	for k := 0; k < e.Cfg.Iterations; k++ {
		st := e.Iterate(context.Background())
		res.Iterations = append(res.Iterations, st)
		res.TotalMoved += st.MovedCells
		res.Degradations = append(res.Degradations, st.Degradations...)
		if e.Broken() {
			break
		}
	}
	res.CandidateEstimates = e.EstimateCount()
	return res
}

func smallConfig(iters int) Config {
	cfg := DefaultConfig()
	cfg.Iterations = iters
	cfg.Workers = 2
	return cfg
}

func TestIterateKeepsDesignLegal(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 1)
	e := New(d, g, r, smallConfig(3))
	for k := 0; k < 3; k++ {
		st := e.Iterate(context.Background())
		if err := d.Validate(); err != nil {
			t.Fatalf("iteration %d left the design illegal: %v", k, err)
		}
		if st.SkippedMoves != 0 {
			t.Errorf("iteration %d skipped %d moves — exclusion constraints leaked", k, st.SkippedMoves)
		}
		if len(st.Degradations) != 0 {
			t.Errorf("iteration %d degraded: %v", k, st.Degradations)
		}
	}
}

func TestSelectedMovesNeverWorseThanStaying(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 2)
	e := New(d, g, r, smallConfig(1))
	st := e.Iterate(context.Background())
	if st.MovedCells > 0 && st.EstAfter > st.EstBefore+1e-6 {
		t.Errorf("selection chose moves costing %v over staying at %v", st.EstAfter, st.EstBefore)
	}
}

func TestRunReducesRoutingCost(t *testing.T) {
	d, g, r := fixture(t, 400, 350, 3)
	before := r.TotalCost()
	e := New(d, g, r, smallConfig(3))
	res := iterate(e)
	after := r.TotalCost()
	if res.TotalMoved == 0 {
		t.Skip("no moves selected on this instance")
	}
	// The framework optimises estimated candidate cost; the committed
	// total cost must not blow up (small regressions possible since
	// estimates are pattern-only).
	if after > before*1.05 {
		t.Errorf("total routing cost regressed: %v -> %v", before, after)
	}
	_ = d
}

func TestCriticalSetIsConnectivityDisjoint(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 4)
	e := New(d, g, r, smallConfig(1))
	critical := e.labelCriticalCells()
	if len(critical) == 0 {
		t.Fatal("no critical cells labelled")
	}
	inSet := map[int32]bool{}
	for _, id := range critical {
		inSet[id] = true
	}
	for _, id := range critical {
		for _, nb := range d.ConnectedCells(id) {
			if inSet[nb] {
				t.Fatalf("connected cells %d and %d both critical", id, nb)
			}
		}
	}
}

func TestGammaCapsCriticalSet(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 5)
	cfg := smallConfig(1)
	cfg.Gamma = 0.05
	e := New(d, g, r, cfg)
	critical := e.labelCriticalCells()
	movable := 0
	for _, c := range d.Cells {
		if !c.Fixed {
			movable++
		}
	}
	limit := int(0.05 * float64(movable)) // cap is checked before insert
	if len(critical) > limit {
		t.Errorf("critical set %d exceeds gamma cap %d", len(critical), limit)
	}
}

func TestHistoryDampsReselection(t *testing.T) {
	d, g, r := fixture(t, 400, 300, 6)
	e := New(d, g, r, smallConfig(1))
	// Mark every cell as previously critical AND moved: acceptance drops
	// to exp(-2) ≈ 13.5%. Over many cells the selected fraction must be
	// well below the fresh-cell rate (100%).
	for _, c := range d.Cells {
		d.MarkCritical(c.ID)
		d.MarkMoved(c.ID)
	}
	critical := e.labelCriticalCells()
	movable := 0
	for _, c := range d.Cells {
		if !c.Fixed {
			movable++
		}
	}
	frac := float64(len(critical)) / float64(movable)
	if frac > 0.30 {
		t.Errorf("history-damped selection rate %.2f, want well below 0.30", frac)
	}
	if len(critical) == 0 {
		t.Error("damping should not eliminate selection entirely")
	}
}

func TestPriorityOrderingPrefersExpensiveCells(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 7)
	e := New(d, g, r, smallConfig(1))
	cfg2 := smallConfig(1)
	cfg2.Gamma = 0.02 // only the very top of the order
	e2 := New(d, g, r, cfg2)
	critical := e2.labelCriticalCells()
	if len(critical) == 0 {
		t.Fatal("no critical cells")
	}
	// Average cost of the small high-priority set must beat the global
	// average: the sort is doing its job.
	avgSel := 0.0
	for _, id := range critical {
		avgSel += e.cellCost(id)
	}
	avgSel /= float64(len(critical))
	avgAll := 0.0
	n := 0
	for _, c := range d.Cells {
		if !c.Fixed {
			avgAll += e.cellCost(c.ID)
			n++
		}
	}
	avgAll /= float64(n)
	if avgSel <= avgAll {
		t.Errorf("priority selection avg cost %v <= population avg %v", avgSel, avgAll)
	}
}

func TestNoPriorityAblationDiffers(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 8)
	cfg := smallConfig(1)
	cfg.Gamma = 0.02
	cfg.NoPriority = true
	e := New(d, g, r, cfg)
	critical := e.labelCriticalCells()
	if len(critical) == 0 {
		t.Fatal("no critical cells")
	}
	// Without the sort, selection follows cell ID order: the set must be
	// a prefix-biased sample, i.e. the smallest IDs dominate.
	maxID := int32(0)
	for _, id := range critical {
		maxID = max(maxID, id)
	}
	if int(maxID) > len(d.Cells)/2 {
		t.Logf("note: unsorted selection reached ID %d of %d", maxID, len(d.Cells))
	}
}

func TestNetsStayConnectedAfterCRP(t *testing.T) {
	d, g, r := fixture(t, 300, 250, 9)
	e := New(d, g, r, smallConfig(2))
	iterate(e)
	// Every spanning net must still have a committed route.
	for _, n := range d.Nets {
		if n.Degree() < 2 {
			continue
		}
		if r.Routes[n.ID] == nil {
			t.Fatalf("net %d lost its route", n.ID)
		}
	}
	_ = g
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		d, g, r := fixture(t, 250, 200, 10)
		e := New(d, g, r, smallConfig(2))
		res := iterate(e)
		return res.TotalMoved, r.TotalCost()
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("same seed diverged: moved %d/%d cost %v/%v", m1, m2, c1, c2)
	}
}

func TestPhaseTimesRecorded(t *testing.T) {
	d, g, r := fixture(t, 250, 200, 11)
	e := New(d, g, r, smallConfig(1))
	st := e.Iterate(context.Background())
	if st.Times.Total() <= 0 {
		t.Error("no phase times recorded")
	}
	if st.Times.GCP <= 0 || st.Times.ECC <= 0 {
		t.Errorf("GCP/ECC not timed: %+v", st.Times)
	}
	if st.Times.Misc() != st.Times.Label+st.Times.ILP {
		t.Error("Misc bucket wrong")
	}
}

func TestLengthOnlyCostMode(t *testing.T) {
	d, g, r := fixture(t, 250, 200, 12)
	cfg := smallConfig(1)
	cfg.CostMode = LengthOnly
	e := New(d, g, r, cfg)
	st := e.Iterate(context.Background())
	if err := d.Validate(); err != nil {
		t.Fatalf("LengthOnly iteration broke legality: %v", err)
	}
	if len(st.Degradations) != 0 {
		t.Errorf("LengthOnly iteration degraded: %v", st.Degradations)
	}
}

func TestMarkHistoryAfterIteration(t *testing.T) {
	d, g, r := fixture(t, 250, 200, 13)
	e := New(d, g, r, smallConfig(1))
	st := e.Iterate(context.Background())
	nCrit, nMoved := 0, 0
	for _, c := range d.Cells {
		if d.WasCritical(c.ID) {
			nCrit++
		}
		if d.WasMoved(c.ID) {
			nMoved++
		}
	}
	if nCrit != st.Criticals {
		t.Errorf("hist_c count %d != labelled %d", nCrit, st.Criticals)
	}
	if nMoved != st.MovedCells {
		t.Errorf("hist_m count %d != moved %d", nMoved, st.MovedCells)
	}
}

func BenchmarkIterate(b *testing.B) {
	d, g, r := fixture(b, 400, 350, 20)
	e := New(d, g, r, smallConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Iterate(context.Background())
	}
}

// BenchmarkECCEstimateCosts isolates phase 3 (Algorithm 3), the Fig. 3 hot
// spot the estimation caches target: candidates are generated once, then
// each iteration re-prices all of them at fixed grid demand. Run with
// -benchmem to see the allocation profile of the fast path.
func BenchmarkECCEstimateCosts(b *testing.B) {
	d, g, r := fixture(b, 400, 350, 20)
	e := New(d, g, r, smallConfig(1))
	critical := e.labelCriticalCells()
	cands, _ := e.generateCandidates(context.Background(), critical)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.estimateCosts(context.Background(), cands)
	}
}
