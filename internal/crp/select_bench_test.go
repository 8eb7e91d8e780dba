package crp

import (
	"context"
	"testing"

	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// BenchmarkSelect times the Eq. 12 search alone: the candidate tables of a
// k=10 run on crp_test7 at scale 0.02, captured phase by phase
// (eachSelection), are selected again. One op selects every captured table
// once.
func BenchmarkSelect(b *testing.B) {
	d, err := ispd.Generate(ispd.Suite(0.02)[6])
	if err != nil {
		b.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	cfg := DefaultConfig()
	cfg.Workers = 2
	e := New(d, g, r, cfg)
	var tables [][][]candidate
	eachSelection(b, e, func(cands [][]candidate, _ []*candidate, _ string) {
		tables = append(tables, cands)
	})
	if len(tables) == 0 {
		b.Fatal("no candidate table captured")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cands := range tables {
			if _, _, stop := e.selectCandidates(context.Background(), cands); stop != "" {
				b.Fatalf("search stopped: %s", stop)
			}
		}
	}
	b.ReportMetric(float64(len(tables)), "tables")
}
