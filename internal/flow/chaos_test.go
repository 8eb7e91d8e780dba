package flow

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/faultinject"
	"github.com/crp-eda/crp/internal/lefdef"
)

// The chaos suite drives the full Fig. 1 pipeline through every fault class
// the robustness layer handles — worker panics, ILP starvation, per-stage
// deadlines, corrupted update-database output, torn input files — and
// asserts the same contract for each: the run completes, the fault is
// visible in Result.Degradations, and the design stays legal. The last
// tests assert the converse: with zero faults injected, the robustness
// layer is bit-invisible.

func hasKind(r *Result, kind string) bool {
	for _, d := range r.Degradations {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

func TestChaosWorkerPanicGCP(t *testing.T) {
	d := design(t, 30)
	inj := faultinject.New(faultinject.Plan{PanicAtGCPCall: 3})
	cfg := quickConfig()
	cfg.CRP.Hooks.GCP = inj.GCPHook()
	r := RunCRP(context.Background(), d, 2, cfg)
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injector fired %v, want exactly one GCP panic", got)
	}
	if !hasKind(r, "worker-panic") {
		t.Errorf("panic not surfaced as a degradation: %v", r.Degradations)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design illegal after quarantined panic: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("run did not complete to metrics")
	}
}

func TestChaosWorkerPanicECC(t *testing.T) {
	d := design(t, 31)
	inj := faultinject.New(faultinject.Plan{PanicAtECCCall: 2})
	cfg := quickConfig()
	cfg.CRP.Hooks.ECC = inj.ECCHook()
	r := RunCRP(context.Background(), d, 2, cfg)
	if got := inj.Fired(); len(got) != 1 {
		t.Fatalf("injector fired %v, want exactly one ECC panic", got)
	}
	if !hasKind(r, "worker-panic") {
		t.Errorf("panic not surfaced as a degradation: %v", r.Degradations)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design illegal after quarantined panic: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("run did not complete to metrics")
	}
}

func TestChaosILPStarvation(t *testing.T) {
	d := design(t, 32)
	inj := faultinject.New(faultinject.Plan{StarveSelectionFromCall: 1})
	cfg := quickConfig()
	cfg.CRP.Hooks.ILPOptions = inj.ILPOptions()
	r := RunCRP(context.Background(), d, 2, cfg)
	if len(inj.Fired()) == 0 {
		t.Fatal("starvation never fired — no selection ILP ran")
	}
	if !hasKind(r, "selection-fallback") {
		t.Errorf("starved selection did not record a fallback: %v", r.Degradations)
	}
	for i, it := range r.CRPStats.Iterations {
		if it.Criticals > 0 && !it.GreedyFallback {
			t.Errorf("iteration %d had criticals but no greedy fallback", i+1)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("greedy fallback broke legality: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("run did not complete to metrics")
	}
}

func TestChaosIterationDeadline(t *testing.T) {
	d := design(t, 34)
	cfg := quickConfig()
	cfg.Budgets.CRPIteration = time.Nanosecond
	r := RunCRP(context.Background(), d, 2, cfg)
	if !r.DeadlineHit() || !hasKind(r, "iteration-deadline") {
		t.Fatalf("nanosecond iteration budget not reported: %v", r.Degradations)
	}
	for i, it := range r.CRPStats.Iterations {
		if !it.DeadlineHit {
			t.Errorf("iteration %d did not record its deadline", i+1)
		}
		if it.MovedCells != 0 {
			t.Errorf("iteration %d moved %d cells past its deadline gate", i+1, it.MovedCells)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("deadline-starved run left design illegal: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("pipeline must still detail-route and evaluate")
	}
}

func TestChaosGRDeadline(t *testing.T) {
	d := design(t, 35)
	cfg := quickConfig()
	cfg.Budgets.GR = time.Nanosecond
	r := RunCRP(context.Background(), d, 1, cfg)
	found := false
	for _, dg := range r.Degradations {
		if dg.Stage == "gr" && dg.Kind == "stage-deadline" {
			found = true
		}
	}
	if !found {
		t.Fatalf("GR deadline not reported: %v", r.Degradations)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design illegal after truncated GR: %v", err)
	}
}

func TestChaosFlowDeadlineWritesOutputs(t *testing.T) {
	d := design(t, 36)
	cfg := quickConfig()
	cfg.Budgets.Flow = time.Nanosecond
	var def, guides bytes.Buffer
	r, err := RunCRPCheckpointed(context.Background(), d, 2, cfg, nil, &def, &guides)
	if err != nil {
		t.Fatal(err)
	}
	if !r.DeadlineHit() {
		t.Error("nanosecond flow budget did not register as a deadline")
	}
	// The contract: a deadline yields the best-so-far outputs, never nothing.
	if !strings.Contains(def.String(), "END DESIGN") {
		t.Error("degraded run wrote no (or truncated) DEF")
	}
}

func TestChaosRollback(t *testing.T) {
	d := design(t, 37)
	cfg := quickConfig()
	corrupted := false
	// After the first update-database phase, nudge a cell off the site grid
	// behind the engine's back. The invariant checker must catch it and roll
	// the whole iteration back; later iterations run clean.
	cfg.CRP.Hooks.PostUD = func(iter int) {
		if !corrupted {
			corrupted = true
			d.Cells[0].Pos.X++
		}
	}
	r := RunCRP(context.Background(), d, 3, cfg)
	if !corrupted {
		t.Fatal("PostUD hook never fired")
	}
	if !hasKind(r, "iteration-rollback") {
		t.Fatalf("corruption not rolled back: %v", r.Degradations)
	}
	if hasKind(r, "invariant-unrecoverable") {
		t.Fatalf("rollback failed to restore consistency: %v", r.Degradations)
	}
	rolled := 0
	for _, it := range r.CRPStats.Iterations {
		if it.RolledBack {
			rolled++
			if it.MovedCells != 0 {
				t.Error("rolled-back iteration still reports moved cells")
			}
		}
	}
	if rolled != 1 {
		t.Errorf("%d iterations rolled back, want exactly the corrupted one", rolled)
	}
	if len(r.CRPStats.Iterations) != 3 {
		t.Errorf("run stopped after rollback: %d iterations", len(r.CRPStats.Iterations))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design illegal after rollback: %v", err)
	}
	if r.Metrics.Vias <= 0 {
		t.Error("run did not complete to metrics")
	}
}

func TestChaosTruncatedDEF(t *testing.T) {
	d := design(t, 38)
	var buf bytes.Buffer
	if err := lefdef.WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		torn := faultinject.TruncateDEF(whole, frac)
		if _, err := lefdef.ParseDEF(bytes.NewReader(torn), d.Tech, d.Macros); err == nil {
			t.Errorf("frac %.2f: truncated DEF parsed without error", frac)
		}
	}
	// Sanity: the untruncated bytes must parse, or the loop above proves
	// nothing about truncation.
	if _, err := lefdef.ParseDEF(bytes.NewReader(whole), d.Tech, d.Macros); err != nil {
		t.Fatalf("round-trip parse of intact DEF failed: %v", err)
	}
}

func TestChaosZeroFaultsBitIdentical(t *testing.T) {
	// The robustness layer must be invisible when nothing fires: a run with
	// no budgets and a run with huge (never-expiring) budgets make the same
	// moves, end at the same positions, and score the same metrics.
	run := func(budgeted bool) *Result {
		cfg := quickConfig()
		if budgeted {
			cfg.Budgets = Budgets{
				Flow: time.Hour, GR: time.Hour, CRPIteration: time.Hour,
				ILP: time.Hour, DR: time.Hour,
			}
		}
		return RunCRP(context.Background(), design(t, 39), 3, cfg)
	}
	plain := run(false)
	budgeted := run(true)
	if plain.Degraded() || budgeted.Degraded() {
		t.Fatalf("fault-free runs degraded: %v / %v", plain.Degradations, budgeted.Degradations)
	}
	if !reflect.DeepEqual(plain.Metrics, budgeted.Metrics) {
		t.Errorf("metrics diverged:\n  plain    %+v\n  budgeted %+v", plain.Metrics, budgeted.Metrics)
	}
	for i := range plain.CRPStats.Iterations {
		a, b := plain.CRPStats.Iterations[i], budgeted.CRPStats.Iterations[i]
		if a.MovedCells != b.MovedCells || a.Criticals != b.Criticals ||
			a.EstAfter != b.EstAfter || a.SolverStatus != b.SolverStatus {
			t.Errorf("iteration %d diverged: %+v vs %+v", i+1, a, b)
		}
	}
}

func TestChaosPositionsBitIdenticalUnderBudgets(t *testing.T) {
	// Same invariant as above at the placement level: cell-by-cell equality.
	type run struct {
		pos []int
	}
	runOnce := func(budgeted bool) run {
		d := design(t, 40)
		cfg := quickConfig()
		if budgeted {
			cfg.Budgets = Budgets{Flow: time.Hour, CRPIteration: time.Hour, ILP: time.Hour}
		}
		RunCRP(context.Background(), d, 2, cfg)
		var r run
		for _, c := range d.Cells {
			r.pos = append(r.pos, c.Pos.X, c.Pos.Y)
		}
		return r
	}
	a, b := runOnce(false), runOnce(true)
	for i := range a.pos {
		if a.pos[i] != b.pos[i] {
			t.Fatalf("placements diverged at coordinate %d: %d vs %d", i, a.pos[i], b.pos[i])
		}
	}
}

func TestChaosNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	d := design(t, 41)
	cfg := quickConfig()
	cfg.Budgets = Budgets{GR: time.Nanosecond, CRPIteration: time.Nanosecond, DR: time.Nanosecond}
	RunCRP(context.Background(), d, 2, cfg)
	// Worker pools join before returning; give the runtime a moment to
	// retire exiting goroutines before declaring a leak.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
