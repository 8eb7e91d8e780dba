package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/detail"
	"github.com/crp-eda/crp/internal/route/global"
)

func evaluated(t *testing.T, seed int64) Metrics {
	t.Helper()
	d, err := ispd.Generate(ispd.Spec{
		Name: "eval_fixture", Node: "n45", Cells: 200, Nets: 150,
		Utilisation: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	return EvaluateCtx(context.Background(), d, g, r.Routes, detail.DefaultConfig())
}

func TestEvaluateProducesMetrics(t *testing.T) {
	m := evaluated(t, 1)
	if m.WirelengthDBU <= 0 || m.Vias <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.WirelengthUM <= 0 {
		t.Error("micron conversion missing")
	}
	if m.Score <= 0 {
		t.Error("score missing")
	}
	if m.Design != "eval_fixture" {
		t.Errorf("design name = %q", m.Design)
	}
}

func TestScoreWeights(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "w", Node: "n45", Cells: 60, Nets: 40, Utilisation: 0.8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2 := d.Tech.Layer(1).Pitch
	m := Metrics{WirelengthDBU: int64(10 * m2), Vias: 3}
	want := 0.5*10 + 2.0*3
	if got := Score(d, m); math.Abs(got-want) > 1e-9 {
		t.Errorf("Score = %v, want %v", got, want)
	}
	m.DRVs.Shorts = 2
	want += 500 * 2
	if got := Score(d, m); math.Abs(got-want) > 1e-9 {
		t.Errorf("Score with DRVs = %v, want %v", got, want)
	}
	// The contest's 4x via-over-wire ratio the paper leans on.
	if ViaWeight/WireWeight != 4 {
		t.Error("via/wire weight ratio must be 4")
	}
}

func TestCompareSignConvention(t *testing.T) {
	base := Metrics{WirelengthDBU: 1000, Vias: 100, Score: 1000}
	better := Metrics{WirelengthDBU: 900, Vias: 90, Score: 900}
	imp := Compare(base, better)
	if imp.WirelengthPct <= 0 || imp.ViasPct <= 0 || imp.ScorePct <= 0 {
		t.Errorf("improvement should be positive: %+v", imp)
	}
	if math.Abs(imp.ViasPct-10) > 1e-9 {
		t.Errorf("ViasPct = %v, want 10", imp.ViasPct)
	}
	worse := Metrics{WirelengthDBU: 1100, Vias: 110, Score: 1100}
	if imp := Compare(base, worse); imp.ViasPct >= 0 {
		t.Errorf("regression should be negative: %+v", imp)
	}
}

func TestCompareDRVDelta(t *testing.T) {
	base := Metrics{}
	ours := Metrics{DRVs: detail.DRVCounts{Shorts: 2}}
	if got := Compare(base, ours).DRVDelta; got != 2 {
		t.Errorf("DRVDelta = %d, want 2", got)
	}
	if got := Compare(ours, base).DRVDelta; got != -2 {
		t.Errorf("DRVDelta = %d, want -2", got)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	imp := Compare(Metrics{}, Metrics{WirelengthDBU: 10})
	if imp.WirelengthPct != 0 {
		t.Error("zero baseline must not divide by zero")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Design: "x", WirelengthUM: 12.5, Vias: 7,
		DRVs: detail.DRVCounts{Shorts: 1, Opens: 2}}
	s := m.String()
	for _, want := range []string{"x:", "vias=7", "DRVs=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	a := evaluated(t, 3)
	b := evaluated(t, 3)
	if a.WirelengthDBU != b.WirelengthDBU || a.Vias != b.Vias || a.Score != b.Score {
		t.Errorf("evaluation not deterministic: %+v vs %+v", a, b)
	}
}

func TestWorstNetsRankedByCost(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "worst", Node: "n45", Cells: 150, Nets: 120,
		Utilisation: 0.85, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	m := EvaluateCtx(context.Background(), d, g, r.Routes, detail.DefaultConfig())
	rows := WorstNets(d, m, 10)
	if len(rows) == 0 {
		t.Fatal("no report rows")
	}
	if len(rows) > 10 {
		t.Fatalf("cap ignored: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cost > rows[i-1].Cost {
			t.Fatalf("rows not sorted: %v then %v", rows[i-1].Cost, rows[i].Cost)
		}
	}
	// Per-net totals must sum to the design totals.
	var wl, vias int64
	for id := range m.NetWL {
		wl += m.NetWL[id]
		vias += m.NetVias[id]
	}
	if wl != m.WirelengthDBU {
		t.Errorf("per-net WL sums to %d, total is %d", wl, m.WirelengthDBU)
	}
	if vias != m.Vias {
		t.Errorf("per-net vias sum to %d, total is %d", vias, m.Vias)
	}
}

func TestWriteNetReport(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "report", Node: "n45", Cells: 100, Nets: 80,
		Utilisation: 0.85, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	m := EvaluateCtx(context.Background(), d, g, r.Routes, detail.DefaultConfig())
	var buf strings.Builder
	if err := WriteNetReport(&buf, d, m, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "WL(um)") {
		t.Error("header missing")
	}
	if lines := strings.Count(out, "\n"); lines < 2 || lines > 6 {
		t.Errorf("report has %d lines, want header + up to 5 rows", lines)
	}
}

func TestWorstNetsEmptyMetrics(t *testing.T) {
	d, err := ispd.Generate(ispd.Spec{
		Name: "empty", Node: "n45", Cells: 60, Nets: 30, Utilisation: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := WorstNets(d, Metrics{}, 5); rows != nil {
		t.Error("metrics without per-net data should produce no rows")
	}
}
