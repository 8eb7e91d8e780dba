// Package eval is the stand-in for the official ISPD-2018 contest
// evaluator the paper scores with. It runs the detailed router over a
// design's committed global routes and reports the Table III metric set:
// total wirelength, total via count, and design-rule violations, plus the
// contest-weighted quality score (a unit of wire weighs 0.5, a via 2.0 —
// the 4x ratio the paper highlights as the reason via reduction dominates
// its cost model).
package eval

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/detail"
	"github.com/crp-eda/crp/internal/route/global"
)

// Weights of the contest scoring function.
const (
	WireWeight = 0.5   // per M2-pitch unit of wire
	ViaWeight  = 2.0   // per via cut
	DRVWeight  = 500.0 // per violation, dominating everything else
)

// Metrics is one evaluated routing solution.
type Metrics struct {
	Design        string
	WirelengthDBU int64
	WirelengthUM  float64
	Vias          int64
	DRVs          detail.DRVCounts
	Score         float64
	Detours       int

	// Truncated reports that the evaluation deadline expired mid-routing;
	// the metrics are a lower bound, not the full design's.
	Truncated bool

	// NetWL and NetVias attribute the totals per net (indexed by net ID).
	NetWL   []int64
	NetVias []int64
}

// EvaluateCtx runs detailed routing and scores the result under a
// cancellation context: the detailed router stops at the next panel
// boundary once ctx expires and the metrics are flagged Truncated.
func EvaluateCtx(ctx context.Context, d *db.Design, g *grid.Grid, routes []*global.Route, cfg detail.Config) Metrics {
	res := detail.RouteCtx(ctx, d, g, routes, cfg)
	m := Metrics{
		Design:        d.Name,
		WirelengthDBU: res.WirelengthDBU,
		WirelengthUM:  d.Tech.Microns(res.WirelengthDBU),
		Vias:          res.Vias,
		DRVs:          res.DRVs,
		Detours:       res.Detours,
		Truncated:     res.Truncated,
		NetWL:         res.NetWL,
		NetVias:       res.NetVias,
	}
	m.Score = Score(d, m)
	return m
}

// Score computes the contest-weighted quality score of a metric set.
// Wirelength is normalised to M2 pitch units, matching the contest's "unit
// of wire" convention.
func Score(d *db.Design, m Metrics) float64 {
	m2 := d.Tech.Layer(1).Pitch
	wlUnits := float64(m.WirelengthDBU) / float64(m2)
	return WireWeight*wlUnits + ViaWeight*float64(m.Vias) + DRVWeight*float64(m.DRVs.Total())
}

// Improvement is a Table III comparison row: positive percentages mean the
// candidate beats the baseline (the paper's sign convention).
type Improvement struct {
	WirelengthPct float64
	ViasPct       float64
	DRVDelta      int // candidate DRVs minus baseline DRVs (0 = "no new DRVs")
	ScorePct      float64
}

// Compare computes the improvement of `ours` over `base`.
func Compare(base, ours Metrics) Improvement {
	pct := func(b, o float64) float64 {
		if b == 0 {
			return 0
		}
		return (b - o) / b * 100
	}
	return Improvement{
		WirelengthPct: pct(float64(base.WirelengthDBU), float64(ours.WirelengthDBU)),
		ViasPct:       pct(float64(base.Vias), float64(ours.Vias)),
		DRVDelta:      ours.DRVs.Total() - base.DRVs.Total(),
		ScorePct:      pct(base.Score, ours.Score),
	}
}

// String formats a metric line for reports.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: WL=%.1fum vias=%d DRVs=%d (S%d/P%d/A%d/O%d) score=%.0f",
		m.Design, m.WirelengthUM, m.Vias, m.DRVs.Total(),
		m.DRVs.Shorts, m.DRVs.Spacing, m.DRVs.MinArea, m.DRVs.Opens, m.Score)
}

// NetReportRow is one line of the worst-net report.
type NetReportRow struct {
	Net          int32
	Name         string
	WirelengthUM float64
	Vias         int64
	Cost         float64 // contest-weighted per-net cost
}

// WorstNets ranks nets by their contest-weighted cost (wire 0.5/unit +
// via 2.0) and returns the top n — the nets a designer would look at first
// and the ones CR&P's Algorithm 1 tends to label critical.
func WorstNets(d *db.Design, m Metrics, n int) []NetReportRow {
	if len(m.NetWL) == 0 {
		return nil
	}
	m2 := float64(d.Tech.Layer(1).Pitch)
	rows := make([]NetReportRow, 0, len(m.NetWL))
	for id := range m.NetWL {
		cost := WireWeight*float64(m.NetWL[id])/m2 + ViaWeight*float64(m.NetVias[id])
		if cost == 0 {
			continue
		}
		rows = append(rows, NetReportRow{
			Net:          int32(id),
			Name:         d.Nets[id].Name,
			WirelengthUM: d.Tech.Microns(m.NetWL[id]),
			Vias:         m.NetVias[id],
			Cost:         cost,
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Cost != rows[b].Cost {
			return rows[a].Cost > rows[b].Cost
		}
		return rows[a].Net < rows[b].Net
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// WriteNetReport prints the worst-net table.
func WriteNetReport(w io.Writer, d *db.Design, m Metrics, n int) error {
	rows := WorstNets(d, m, n)
	if _, err := fmt.Fprintf(w, "%-16s %10s %6s %10s\n", "net", "WL(um)", "vias", "cost"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-16s %10.1f %6d %10.1f\n", r.Name, r.WirelengthUM, r.Vias, r.Cost); err != nil {
			return err
		}
	}
	return nil
}
