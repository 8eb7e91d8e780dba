// Package crpbench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation section (see DESIGN.md for the
// experiment index):
//
//	BenchmarkTable2Stats     — Table II, benchmark statistics
//	BenchmarkTable3/<name>   — Table III, the four flows per circuit; via
//	                           and wirelength improvements are attached as
//	                           custom benchmark metrics
//	BenchmarkFig2Runtime     — Fig. 2, flow runtime comparison
//	BenchmarkFig3Breakdown   — Fig. 3, CR&P phase breakdown percentages
//	BenchmarkAblation*       — the design-choice ablations DESIGN.md lists
//
// Benchmarks run at a reduced scale (CRP_BENCH_SCALE, default 0.004) so
// `go test -bench=. -benchmem` finishes on a laptop; cmd/experiments runs
// the full-scale sweep.
package crpbench

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"

	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eval"
	"github.com/crp-eda/crp/internal/experiments"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
)

func benchScale() float64 {
	if s := os.Getenv("CRP_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.004
}

// BenchmarkTable2Stats generates the ten-circuit suite and computes its
// statistics — the work behind Table II.
func BenchmarkTable2Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 runs the four Table III flows per circuit and reports the
// improvement percentages as custom metrics (viaImp%, wlImp% for k=10).
func BenchmarkTable3(b *testing.B) {
	for idx, spec := range ispd.Suite(benchScale()) {
		spec := spec
		idx := idx
		b.Run(spec.Name, func(b *testing.B) {
			opts := experiments.DefaultOptions()
			opts.Scale = benchScale()
			opts.Circuits = []int{idx}
			var lastVia, lastWL float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				cr := res[0]
				imp := eval.Compare(cr.Baseline.Metrics, cr.K10.Metrics)
				lastVia, lastWL = imp.ViasPct, imp.WirelengthPct
			}
			b.ReportMetric(lastVia, "viaImp%")
			b.ReportMetric(lastWL, "wlImp%")
		})
	}
}

// BenchmarkFig2Runtime measures the four flow variants on one mid-suite
// circuit; the benchmark time of each sub-benchmark is the figure's bar.
func BenchmarkFig2Runtime(b *testing.B) {
	spec := ispd.Suite(benchScale())[4]
	cfg := flow.DefaultConfig()
	newDesign := func(b *testing.B) *db.Design {
		d, err := ispd.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := newDesign(b)
			b.StartTimer()
			flow.RunBaseline(context.Background(), d, cfg)
		}
	})
	b.Run("sota18", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := newDesign(b)
			b.StartTimer()
			flow.RunSOTA(context.Background(), d, cfg)
		}
	})
	b.Run("crp_k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := newDesign(b)
			b.StartTimer()
			flow.RunCRP(context.Background(), d, 1, cfg)
		}
	})
	b.Run("crp_k10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := newDesign(b)
			b.StartTimer()
			flow.RunCRP(context.Background(), d, 10, cfg)
		}
	})
}

// BenchmarkFig3Breakdown runs the CR&P k=10 flow and reports the Fig. 3
// phase percentages as custom metrics.
func BenchmarkFig3Breakdown(b *testing.B) {
	spec := ispd.Suite(benchScale())[6]
	cfg := flow.DefaultConfig()
	var t flow.Timings
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := ispd.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := flow.RunCRP(context.Background(), d, 10, cfg)
		t = res.Timings
	}
	total := t.Total.Seconds()
	if total > 0 {
		pct := func(s float64) float64 { return s / total * 100 }
		b.ReportMetric(pct(t.GlobalRoute.Seconds()), "GR%")
		b.ReportMetric(pct(t.CRPPhases.GCP.Seconds()), "GCP%")
		b.ReportMetric(pct(t.CRPPhases.ECC.Seconds()), "ECC%")
		b.ReportMetric(pct(t.CRPPhases.UD.Seconds()), "UD%")
		b.ReportMetric(pct(t.CRPPhases.Misc().Seconds()), "Misc%")
		b.ReportMetric(pct(t.DetailRoute.Seconds()), "DR%")
	}
}

// ablationRun executes CR&P k=5 with a mutated config and reports the via
// improvement over the shared baseline.
func ablationRun(b *testing.B, mutate func(*crp.Config)) {
	spec := ispd.Suite(benchScale())[4]
	cfg := flow.DefaultConfig()
	mutate(&cfg.CRP)
	var viaImp float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d1, err := ispd.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		base := flow.RunBaseline(context.Background(), d1, flow.DefaultConfig())
		d2, err := ispd.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := flow.RunCRP(context.Background(), d2, 5, cfg)
		viaImp = eval.Compare(base.Metrics, res.Metrics).ViasPct
	}
	b.ReportMetric(viaImp, "viaImp%")
}

// BenchmarkAblationFull is the reference point: the paper's configuration.
func BenchmarkAblationFull(b *testing.B) {
	ablationRun(b, func(*crp.Config) {})
}

// BenchmarkAblationLengthOnlyCost disables the Eq. 10 congestion penalty —
// the [18]-style cost — isolating the first reason the paper credits for
// beating the state of the art.
func BenchmarkAblationLengthOnlyCost(b *testing.B) {
	ablationRun(b, func(c *crp.Config) { c.CostMode = crp.LengthOnly })
}

// BenchmarkAblationNoPriority removes the criticality ordering of
// Algorithm 1 — the second reason the paper credits.
func BenchmarkAblationNoPriority(b *testing.B) {
	ablationRun(b, func(c *crp.Config) { c.NoPriority = true })
}

// BenchmarkAblationGamma sweeps the critical-set fraction around the
// paper's 0.6.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{0.2, 0.6, 0.9} {
		gamma := gamma
		b.Run(gammaName(gamma), func(b *testing.B) {
			ablationRun(b, func(c *crp.Config) { c.Gamma = gamma })
		})
	}
}

func gammaName(g float64) string {
	return "gamma_" + strconv.FormatFloat(g, 'f', 1, 64)
}

// BenchmarkAblationWindow sweeps the legalizer window around the paper's
// 20 sites x 5 rows.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []struct{ sites, rows int }{{10, 3}, {20, 5}, {40, 7}} {
		w := w
		b.Run("w"+strconv.Itoa(w.sites)+"x"+strconv.Itoa(w.rows), func(b *testing.B) {
			ablationRun(b, func(c *crp.Config) {
				c.Legal.NSites = w.sites
				c.Legal.NRows = w.rows
			})
		})
	}
}
