package legal_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/legal"
	"github.com/crp-eda/crp/internal/route/global"
)

// flowOutcome is everything a CR&P run decides: per-iteration stats (minus
// wall-clock times), final cell positions, and the final routing cost.
type flowOutcome struct {
	iters     []crp.IterStats
	positions []geom.Point
	totalCost float64
}

// runFlow runs a small full CR&P flow (k=3, 4 workers) on synthetic
// testcase idx at scale 0.02. With seed set, the engine's legalizer runs
// the seed implementation and every selection ILP is solved by the seed
// solver, so no solve touches presolve or the sparse simplex.
func runFlow(t *testing.T, idx int, seed bool) flowOutcome {
	t.Helper()
	d, err := ispd.Generate(ispd.Suite(0.02)[idx])
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	cfg := crp.DefaultConfig()
	cfg.Iterations = 3
	cfg.Workers = 4
	if seed {
		cfg.Hooks.SolveSelection = func(m *ilp.Model, opt ilp.Options) ilp.Solution {
			return m.SolveDense(opt)
		}
	}
	e := crp.New(d, g, r, cfg)
	if seed {
		legal.UseSeed(e.L)
	}
	var o flowOutcome
	for k := 0; k < cfg.Iterations && !e.Broken(); k++ {
		it := e.Iterate(context.Background())
		it.Times = crp.PhaseTimes{} // wall-clock is the one thing allowed to differ
		o.iters = append(o.iters, it)
	}
	o.totalCost = r.TotalCost()
	for _, c := range d.Cells {
		o.positions = append(o.positions, c.Pos)
	}
	return o
}

// TestFlowFastVsDenseParity is the flow half of the differential-parity
// ladder: full CR&P runs through the shipped engine (occupancy snapshot, row
// memo, enumerated relocation, stay-put bound, sparse selection solver with
// presolve) and through the seed engine (seed legalizer with its own
// brute-force relocation, SolveDense selection) must make identical moves
// and end with identical placements, statistics and routing cost on
// crp_test1 and crp_test2.
func TestFlowFastVsDenseParity(t *testing.T) {
	for _, idx := range []int{0, 1} {
		fast := runFlow(t, idx, false)
		seed := runFlow(t, idx, true)
		if !reflect.DeepEqual(fast, seed) {
			t.Errorf("testcase %d: shipped and seed flows diverged (shipped cost %v, seed cost %v)",
				idx+1, fast.totalCost, seed.totalCost)
		}
		if fast.totalCost == 0 || len(fast.positions) == 0 {
			t.Fatalf("testcase %d: degenerate outcome", idx+1)
		}
	}
}
