package crp

import (
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// runOutcome is everything a CR&P run decides: per-iteration stats (minus
// wall-clock times), final placement, and final committed routing cost.
type runOutcome struct {
	iters     []IterStats
	positions []geom.Point
	totalCost float64
}

func outcomeOf(t *testing.T, d *db.Design, r *global.Router, res *Result) runOutcome {
	t.Helper()
	o := runOutcome{totalCost: r.TotalCost()}
	for _, it := range res.Iterations {
		it.Times = PhaseTimes{} // wall-clock is the one thing allowed to differ
		o.iters = append(o.iters, it)
	}
	for _, c := range d.Cells {
		o.positions = append(o.positions, c.Pos)
	}
	return o
}

func sameOutcome(a, b runOutcome) bool {
	if a.totalCost != b.totalCost || len(a.iters) != len(b.iters) || len(a.positions) != len(b.positions) {
		return false
	}
	for i := range a.iters {
		// IterStats carries a Degradations slice now, so == no longer
		// applies; DeepEqual also asserts both runs degraded identically
		// (in these fault-free runs: not at all).
		if !reflect.DeepEqual(a.iters[i], b.iters[i]) {
			return false
		}
	}
	for i := range a.positions {
		if a.positions[i] != b.positions[i] {
			return false
		}
	}
	return true
}

// TestDeterminismColdWarmAndUncached is the regression guard for the
// estimation fast path: a run on cold caches, a run whose caches were
// pre-warmed with unrelated queries, and a run with caching disabled
// entirely must all make the same moves and end with identical statistics,
// placements, and routing cost. Cache state may change only speed, never
// results.
func TestDeterminismColdWarmAndUncached(t *testing.T) {
	build := func(disableCache bool) (*db.Design, *grid.Grid, *global.Router) {
		d, err := ispd.Generate(ispd.Spec{
			Name: "crp_det", Node: "n45", Cells: 300, Nets: 250,
			Utilisation: 0.88, Hotspots: 2, IOFraction: 0.03, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := grid.New(d, grid.DefaultParams())
		rcfg := global.DefaultConfig()
		rcfg.DisableEstimateCache = disableCache
		r := global.New(d, g, rcfg)
		r.RouteAll()
		return d, g, r
	}
	run := func(disableCache, warm bool) runOutcome {
		d, g, r := build(disableCache)
		if warm {
			// Populate the segment/tree caches with every net's current
			// terminals before the engine sees anything.
			for _, n := range d.Nets {
				r.EstimateTerminalCost(d.NetPinPositions(n))
			}
		}
		e := New(d, g, r, smallConfig(3))
		return outcomeOf(t, d, r, iterate(e))
	}

	cold := run(false, false)
	warm := run(false, true)
	uncached := run(true, false)

	if !sameOutcome(cold, warm) {
		t.Error("cold-cache and warm-cache runs diverged")
	}
	if !sameOutcome(cold, uncached) {
		t.Error("cached and cache-disabled runs diverged")
	}
	if cold.totalCost == 0 || len(cold.positions) == 0 {
		t.Fatal("degenerate outcome — fixture produced nothing to compare")
	}
}
