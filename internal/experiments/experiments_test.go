package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/flow"
)

// tinyOptions keeps the sweep fast enough for unit testing.
func tinyOptions() Options {
	opts := DefaultOptions()
	opts.Scale = 0.004
	opts.Circuits = []int{0}
	opts.K1 = 1
	opts.K10 = 3
	opts.Flow = flow.DefaultConfig()
	opts.Flow.CRP.Workers = 2
	return opts
}

func TestRunProducesAllFourFlows(t *testing.T) {
	res, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	cr := res[0]
	if cr.Baseline == nil || cr.SOTA == nil || cr.K1 == nil || cr.K10 == nil {
		t.Fatal("missing flow results")
	}
	if cr.Baseline.Metrics.Vias <= 0 {
		t.Error("baseline has no vias")
	}
	if cr.SOTA.Failed {
		t.Error("unbudgeted SOTA failed")
	}
	if cr.Stats.Cells == 0 {
		t.Error("stats missing")
	}
}

func TestRunRejectsBadCircuitIndex(t *testing.T) {
	opts := tinyOptions()
	opts.Circuits = []int{99}
	if _, err := Run(opts); err == nil {
		t.Error("index 99 accepted")
	}
}

func TestTable2Format(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, 0.004); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"crp_test1", "crp_test10", "45nm", "32nm", "#cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Errorf("Table2 has %d lines, want >= 12", lines)
	}
}

func TestTable3Fig2Fig3Format(t *testing.T) {
	res, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var t3, f2, f3 bytes.Buffer
	Table3(&t3, res)
	Fig2(&f2, res)
	Fig3(&f3, res)
	if !strings.Contains(t3.String(), "crp_test1") || !strings.Contains(t3.String(), "Avg") {
		t.Errorf("Table III malformed:\n%s", t3.String())
	}
	if !strings.Contains(f2.String(), "Baseline") {
		t.Errorf("Fig 2 malformed:\n%s", f2.String())
	}
	for _, col := range []string{"GR", "GCP", "ECC", "UD", "Misc", "DR"} {
		if !strings.Contains(f3.String(), col) {
			t.Errorf("Fig 3 missing column %s", col)
		}
	}
}

func TestSOTAFailureRendersAsFailed(t *testing.T) {
	opts := tinyOptions()
	opts.SOTAMaxCells = 1
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].SOTA.Failed {
		t.Fatal("one-cell budget did not fail")
	}
	var t3, f2 bytes.Buffer
	Table3(&t3, res)
	Fig2(&f2, res)
	if !strings.Contains(t3.String(), "Failed") {
		t.Error("Table III does not render Failed")
	}
	if !strings.Contains(f2.String(), "Failed") {
		t.Error("Fig 2 does not render Failed")
	}
}

// TestImprovementShape asserts the paper's claims at suite level on all ten
// circuits at scale 0.004, with k=1, k=10 and [18] failing on the largest
// circuit as it did on ispd18_test10: on every circuit k=10 adds no DRVs
// and no vias to the baseline, and the suite's k=10 vias are below both its
// baseline vias and its k=1 vias.
func TestImprovementShape(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.004
	opts.Flow.CRP.Workers = 2
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("%d circuits, want 10", len(res))
	}
	var base, k1, k10 int64
	for _, cr := range res {
		name, b := cr.Spec.Name, cr.Baseline.Metrics
		m := cr.K10.Metrics
		if m.DRVs.Total() > b.DRVs.Total() {
			t.Errorf("%s: k=10 DRVs %d, baseline %d", name, m.DRVs.Total(), b.DRVs.Total())
		}
		if m.Vias > b.Vias {
			t.Errorf("%s: k=10 vias %d, baseline %d", name, m.Vias, b.Vias)
		}
		if wantFail := name == "crp_test10"; cr.SOTA.Failed != wantFail {
			t.Errorf("%s: [18] failed %v, want %v", name, cr.SOTA.Failed, wantFail)
		}
		base += b.Vias
		k1 += cr.K1.Metrics.Vias
		k10 += m.Vias
	}
	t.Logf("suite vias: baseline %d, k=1 %d, k=10 %d", base, k1, k10)
	if k10 >= base {
		t.Errorf("suite k=10 vias %d not below the baseline's %d", k10, base)
	}
	if k10 >= k1 {
		t.Errorf("suite k=10 vias %d not below k=1's %d", k10, k1)
	}
}
