package flow

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/ispd"
)

func design(t testing.TB, seed int64) *db.Design {
	t.Helper()
	d, err := ispd.Generate(ispd.Spec{
		Name: "flow_fixture", Node: "n45", Cells: 250, Nets: 200,
		Utilisation: 0.87, Hotspots: 2, IOFraction: 0.03, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.CRP.Workers = 2
	return cfg
}

func TestRunBaseline(t *testing.T) {
	r := RunBaseline(context.Background(), design(t, 1), quickConfig())
	if r.Metrics.WirelengthDBU <= 0 || r.Metrics.Vias <= 0 {
		t.Fatalf("degenerate metrics: %+v", r.Metrics)
	}
	if r.Timings.GlobalRoute <= 0 || r.Timings.DetailRoute <= 0 {
		t.Error("timings not recorded")
	}
	if r.Timings.Middle != 0 {
		t.Error("baseline has no middle stage")
	}
	if r.Failed {
		t.Error("baseline cannot fail")
	}
}

func TestRunCRP(t *testing.T) {
	r := RunCRP(context.Background(), design(t, 2), 2, quickConfig())
	if r.CRPStats == nil || len(r.CRPStats.Iterations) != 2 {
		t.Fatalf("CRPStats = %+v", r.CRPStats)
	}
	if r.Timings.Middle <= 0 {
		t.Error("CR&P stage not timed")
	}
	if r.Timings.CRPPhases.Total() <= 0 {
		t.Error("phase breakdown missing")
	}
	if r.Metrics.Vias <= 0 {
		t.Error("no metrics")
	}
}

func TestRunSOTA(t *testing.T) {
	r := RunSOTA(context.Background(), design(t, 3), quickConfig())
	if r.Failed {
		t.Fatal("unbudgeted SOTA run failed")
	}
	if r.BaselineStats == nil || r.BaselineStats.MovedCells == 0 {
		t.Error("SOTA moved nothing")
	}
	if r.Metrics.Vias <= 0 {
		t.Error("no metrics")
	}
}

func TestRunSOTAFailure(t *testing.T) {
	cfg := quickConfig()
	cfg.Baseline.MaxCells = 1
	r := RunSOTA(context.Background(), design(t, 4), cfg)
	if !r.Failed {
		t.Fatal("one-cell budget did not fail")
	}
	if r.Metrics.Vias != 0 {
		t.Error("failed run must carry no metrics")
	}
	if r.Timings.DetailRoute != 0 {
		t.Error("failed run must not detail-route")
	}
}

func TestCRPBeatsOrMatchesBaselineScore(t *testing.T) {
	// The headline reproduction check at unit scale: CR&P k=3 must not
	// regress the contest score, and across seeds it should win on vias.
	better := 0
	trials := 3
	for seed := int64(10); seed < int64(10+trials); seed++ {
		base := RunBaseline(context.Background(), design(t, seed), quickConfig())
		crp := RunCRP(context.Background(), design(t, seed), 3, quickConfig())
		if crp.Metrics.DRVs.Total() > base.Metrics.DRVs.Total() {
			t.Errorf("seed %d: CR&P added DRVs (%d -> %d)", seed,
				base.Metrics.DRVs.Total(), crp.Metrics.DRVs.Total())
		}
		if crp.Metrics.Vias <= base.Metrics.Vias {
			better++
		}
	}
	if better == 0 {
		t.Errorf("CR&P never matched baseline vias in %d trials", trials)
	}
}

func TestRunCRPWithOutputs(t *testing.T) {
	var def, guides bytes.Buffer
	r, err := RunCRPCheckpointed(context.Background(), design(t, 5), 1, quickConfig(), nil, &def, &guides)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("no metrics")
	}
	if !strings.Contains(def.String(), "END DESIGN") {
		t.Error("DEF output truncated")
	}
	if !strings.Contains(guides.String(), "(") {
		t.Error("guide output empty")
	}
}

// TestTimingsSumToTotal pins the single assembly point: every entry point's
// Timings come from one driver, so on each of them the stage times sum to
// Total and the CR&P phase breakdown is the CR&P stats' own; a baseline
// has no middle stage and a failed SOTA run no detailed routing.
func TestTimingsSumToTotal(t *testing.T) {
	ctx := context.Background()
	must := func(r *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	failCfg := quickConfig()
	failCfg.Baseline.MaxCells = 1

	// A checkpointed run cancelled after iteration 1's checkpoint leaves
	// work for the resume; the resumed design then holds the placement of
	// the final checkpoint, which the ECO-from-checkpoint delta targets.
	ckDir := t.TempDir()
	cctx, cancel := context.WithCancel(ctx)
	ck := &Checkpointing{Manager: openManager(t, ckDir, 0), AfterSave: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	checkpointed := must(RunCRPCheckpointed(cctx, design(t, 6), 2, quickConfig(), ck, nil, nil))
	cancel()
	resumedD := design(t, 6)
	resumed := must(Resume(ctx, resumedD, 2, quickConfig(), &Checkpointing{Manager: openManager(t, ckDir, 0)}, nil, nil))
	fromCkpt, err := eco.GenerateDelta(resumedD, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := eco.GenerateDelta(design(t, 6), 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	structural := &eco.Delta{Adds: []eco.AddCell{freeAddSite(t, design(t, 6))}}

	rows := []struct {
		name string
		res  *Result
		crp  bool
	}{
		{"baseline", RunBaseline(ctx, design(t, 6), quickConfig()), false},
		{"sota", RunSOTA(ctx, design(t, 6), quickConfig()), false},
		{"sota-failed", RunSOTA(ctx, design(t, 6), failCfg), false},
		{"crp", RunCRP(ctx, design(t, 6), 2, quickConfig()), true},
		{"checkpointed", checkpointed, true},
		{"resume", resumed, true},
		{"eco-local", must(RunECO(ctx, design(t, 6), nil, local, quickConfig(), ECOOptions{}, nil, nil)), true},
		{"eco-structural", must(RunECO(ctx, design(t, 6), nil, structural, quickConfig(), ECOOptions{}, nil, nil)), true},
		{"eco-from-checkpoint", must(ECOFromCheckpoint(ctx, design(t, 6), openManager(t, ckDir, 0), fromCkpt, quickConfig(), ECOOptions{}, nil, nil)), true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tm := row.res.Timings
			if sum := tm.GlobalRoute + tm.Middle + tm.DetailRoute; sum != tm.Total {
				t.Errorf("stage times %v do not sum to total %v", sum, tm.Total)
			}
			if row.crp {
				if row.res.CRPStats == nil {
					t.Fatal("CR&P ran but left no CRPStats")
				}
				if want := row.res.CRPStats.Times(); tm.CRPPhases != want {
					t.Errorf("CRPPhases %+v, want CRPStats.Times() %+v", tm.CRPPhases, want)
				}
			}
		})
	}
	if tm := rows[0].res.Timings; tm.Middle != 0 {
		t.Errorf("baseline middle stage %v, want 0", tm.Middle)
	}
	if r := rows[2].res; !r.Failed || r.Timings.DetailRoute != 0 {
		t.Errorf("failed SOTA: Failed=%v DetailRoute=%v, want true and 0", r.Failed, r.Timings.DetailRoute)
	}
}

func TestCRPPhaseTimesWithinMiddle(t *testing.T) {
	r := RunCRP(context.Background(), design(t, 7), 2, quickConfig())
	if r.Timings.CRPPhases.Total() > r.Timings.Middle {
		t.Errorf("phase sum %v exceeds middle stage %v",
			r.Timings.CRPPhases.Total(), r.Timings.Middle)
	}
}

func TestFreshDesignsIndependent(t *testing.T) {
	// Running baseline then CR&P on the same design object would leak
	// state; the flow API contract is fresh designs per run. Verify the
	// guard: running CR&P after baseline on the same object must not
	// corrupt legality even though metrics will differ.
	d := design(t, 8)
	RunBaseline(context.Background(), d, quickConfig())
	r := RunCRP(context.Background(), d, 1, quickConfig())
	if err := d.Validate(); err != nil {
		t.Fatalf("design corrupted: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("second flow produced no metrics")
	}
}
