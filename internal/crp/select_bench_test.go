package crp

import (
	"testing"

	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// BenchmarkSelectionSolve times the selection-ILP layer alone: the Eq. 12
// models of a k=10 run on crp_test7 at scale 0.02, captured through
// Hooks.SolveSelection with their options (each iteration builds a fresh
// model, so the captured ones stay valid), solved in turn by Solve, the
// production path, and by SolveDense, the seed solver. One op solves every
// captured model once.
func BenchmarkSelectionSolve(b *testing.B) {
	d, err := ispd.Generate(ispd.Suite(0.02)[6])
	if err != nil {
		b.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	cfg := DefaultConfig()
	cfg.Workers = 2
	var models []*ilp.Model
	var opts []ilp.Options
	cfg.Hooks.SolveSelection = func(m *ilp.Model, opt ilp.Options) ilp.Solution {
		models, opts = append(models, m), append(opts, opt)
		return m.Solve(opt)
	}
	iterate(New(d, g, r, cfg))
	if len(models) == 0 {
		b.Fatal("no selection model captured")
	}
	for _, s := range []struct {
		name  string
		solve func(m *ilp.Model, opt ilp.Options) ilp.Solution
	}{
		{"Solve", (*ilp.Model).Solve},
		{"SolveDense", (*ilp.Model).SolveDense},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportMetric(float64(len(models)), "models")
			for i := 0; i < b.N; i++ {
				for j, m := range models {
					if sol := s.solve(m, opts[j]); sol.Status != ilp.Optimal {
						b.Fatalf("model %d: %v", j, sol.Status)
					}
				}
			}
		})
	}
}
