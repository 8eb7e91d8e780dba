package crp

import (
	"fmt"
	"testing"

	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// flowOutcome runs a small full CR&P flow on one of the synthetic ISPD
// testcases and captures everything the run decided.
func flowOutcome(t *testing.T, idx int, scale float64, iters, workers int) runOutcome {
	t.Helper()
	spec := ispd.Suite(scale)[idx]
	d, err := ispd.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	cfg := DefaultConfig()
	cfg.Iterations = iters
	cfg.Workers = workers
	e := New(d, g, r, cfg)
	return outcomeOf(t, d, r, iterate(e))
}

// TestFlowWorkerCountInvariant: the candidate-generation and costing
// fan-outs merge results by item index, so the worker count must never
// change the outcome — 2 and 8 workers are bit-identical to 1, at the
// default configuration, on crp_test1, crp_test2 and the Fig. 3 circuit
// crp_test7.
func TestFlowWorkerCountInvariant(t *testing.T) {
	for _, tc := range []struct {
		idx   int
		scale float64
		iters int
	}{
		{0, 0.02, 3},  // crp_test1
		{1, 0.02, 3},  // crp_test2
		{6, 0.004, 2}, // crp_test7
	} {
		t.Run(fmt.Sprintf("crp_test%d", tc.idx+1), func(t *testing.T) {
			serial := flowOutcome(t, tc.idx, tc.scale, tc.iters, 1)
			for _, w := range []int{2, 8} {
				if !sameOutcome(serial, flowOutcome(t, tc.idx, tc.scale, tc.iters, w)) {
					t.Errorf("%d workers changed the run outcome", w)
				}
			}
		})
	}
}

// TestGCPTimingSplit: the GCP phase records the legalizer's time in
// GCPGen, which can never exceed the legalizer's total recorded time, and
// GCPILP stays 0.
func TestGCPTimingSplit(t *testing.T) {
	spec := ispd.Suite(0.02)[1]
	d, err := ispd.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	cfg := DefaultConfig()
	cfg.Iterations = 2
	cfg.Workers = 2
	e := New(d, g, r, cfg)
	res := iterate(e)
	times := res.Times()
	if times.GCP <= 0 {
		t.Fatal("no GCP time recorded")
	}
	if times.GCPGen <= 0 {
		t.Error("GCPGen split not recorded")
	}
	if times.GCPILP != 0 {
		t.Errorf("GCPILP recorded %v", times.GCPILP)
	}
	if run := e.L.Timing(); times.GCPGen > run {
		t.Errorf("recorded GCPGen %v exceeds legalizer total %v", times.GCPGen, run)
	}
}
