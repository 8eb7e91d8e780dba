// Package flow wires the full physical-design pipeline of the paper's
// Fig. 1: (1) global routing (CUGR substitute), (2) the CR&P co-operation
// loop, (3) detailed routing (TritonRoute substitute), evaluated by the
// ISPD-2018-style scorer. It also runs the two comparison flows of Table
// III — the plain baseline (no cell movement) and the median-ILP state of
// the art [18] — and records the wall-clock timings Figs. 2 and 3 report.
//
// Every Run* entry point takes a context.Context and honours Config.Budgets
// — per-stage wall-clock caps that degrade the run instead of killing it: a
// stage that runs out of time stops at a consistent boundary, the event is
// recorded in Result.Degradations, and the pipeline continues with whatever
// the stage completed. With a background context and zero budgets the
// pipeline behaves (bit-identically) as if the robustness layer did not
// exist.
package flow

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/crp-eda/crp/internal/baseline/medianilp"
	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/eval"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/detail"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/view"
)

// Budgets holds the per-stage wall-clock deadlines of a flow run. Zero
// means unlimited. Budgets are caps, not reservations: a stage that
// finishes early gives the remaining stages all the remaining time of the
// enclosing Flow budget.
type Budgets struct {
	// Flow caps the whole pipeline (GR + middle + DR).
	Flow time.Duration
	// GR caps initial global routing (including RRR and final reroute).
	GR time.Duration
	// CRPIteration caps each CR&P iteration (crp.Config.IterTimeout).
	CRPIteration time.Duration
	// ILP caps each solve of CR&P's selection ILP (Eq. 12).
	ILP time.Duration
	// DR caps detailed routing / evaluation.
	DR time.Duration
}

// Config aggregates the per-stage configurations. Zero values mean each
// stage's defaults.
type Config struct {
	Grid     grid.Params
	Global   global.Config
	Detail   detail.Config
	CRP      crp.Config
	Baseline medianilp.Config
	Budgets  Budgets
	// AdmitDegradations records degradations imposed before the run ever
	// started — the job service's load-shedding admission clamps (reduced
	// k, tightened budgets). Run* entry points fold them into
	// Result.Degradations up front so a degraded-admission run is
	// self-describing. Resume does not re-apply them: checkpoint 0 is
	// committed after the fold, so a resumed run inherits them from its
	// snapshot's degradation log instead.
	AdmitDegradations []Degradation
}

// DefaultConfig returns the experiment defaults (the paper's parameters).
func DefaultConfig() Config {
	return Config{
		Grid:     grid.DefaultParams(),
		Global:   global.DefaultConfig(),
		Detail:   detail.DefaultConfig(),
		CRP:      crp.DefaultConfig(),
		Baseline: medianilp.DefaultConfig(),
	}
}

// Timings is the wall-clock breakdown of one flow run (Figs. 2 and 3).
type Timings struct {
	GlobalRoute time.Duration
	Middle      time.Duration // CR&P loop or median-ILP sweep; 0 for baseline
	DetailRoute time.Duration
	Total       time.Duration
	CRPPhases   crp.PhaseTimes // zero unless the CR&P flow ran
}

// Degradation is one flow-level fault-tolerance event: a stage deadline, a
// fallback, a quarantined worker, or a rolled-back iteration.
type Degradation struct {
	Stage  string // "gr", "crp", "sota", "dr"
	Kind   string // stable identifier, e.g. "stage-deadline", "selection-fallback"
	Detail string
}

// String implements fmt.Stringer.
func (d Degradation) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Stage, d.Kind, d.Detail)
}

// Result is one evaluated flow run.
type Result struct {
	Metrics eval.Metrics
	Timings Timings
	// Failed marks a state-of-the-art run that exceeded its budget (the
	// paper's "Failed" entry for ispd18_test10); Metrics is zero then.
	Failed bool
	// CRPStats holds per-iteration statistics for CR&P runs.
	CRPStats *crp.Result
	// BaselineStats holds the median-ILP sweep statistics for SOTA runs.
	BaselineStats *medianilp.Result
	// GlobalStats reports the initial global routing.
	GlobalStats global.Stats
	// ECO reports what the incremental entry point did; nil unless the run
	// came through RunECO.
	ECO *ECOStats
	// Degradations lists every fault-tolerance event of the run, in stage
	// order; empty on a clean run.
	Degradations []Degradation
}

// Degraded reports whether any fault-tolerance event fired during the run.
func (r *Result) Degraded() bool { return len(r.Degradations) > 0 }

// DeadlineHit reports whether any stage (or the whole flow) ran out of its
// wall-clock budget.
func (r *Result) DeadlineHit() bool {
	for _, d := range r.Degradations {
		switch d.Kind {
		case "stage-deadline", "iteration-deadline", "run-cancelled":
			return true
		}
	}
	return false
}

// degrade appends a flow-level degradation.
func (r *Result) degrade(stage, kind, detail string) {
	r.Degradations = append(r.Degradations, Degradation{Stage: stage, Kind: kind, Detail: detail})
}

// session holds the live state of a run: the three stores, the design-state
// view over them (checkpoints materialize through it), and — on a resumed
// run only — the restored CR&P engine.
type session struct {
	d      *db.Design
	g      *grid.Grid
	r      *global.Router
	v      *view.View
	engine *crp.Engine
}

// flowCtx applies the whole-pipeline budget. The returned cancel must be
// called even on early exit.
func flowCtx(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.Budgets.Flow > 0 {
		return context.WithTimeout(ctx, cfg.Budgets.Flow)
	}
	return context.WithCancel(ctx)
}

// stageCtx derives a stage context capped by d (unlimited when d is 0).
func stageCtx(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// crpConfig wires the flow budgets into the CR&P engine configuration,
// keeping any explicitly-set engine value.
func crpConfig(cfg Config, k int) crp.Config {
	ccfg := cfg.CRP
	if k > 0 {
		ccfg.Iterations = k
	}
	if ccfg.IterTimeout == 0 {
		ccfg.IterTimeout = cfg.Budgets.CRPIteration
	}
	if ccfg.ILPTimeLimit == 0 {
		ccfg.ILPTimeLimit = cfg.Budgets.ILP
	}
	return ccfg
}

// globalRoute runs stage 1 under the GR budget.
func globalRoute(ctx context.Context, d *db.Design, cfg Config, res *Result) (session, time.Duration) {
	t0 := time.Now()
	gctx, cancel := stageCtx(ctx, cfg.Budgets.GR)
	defer cancel()
	g := grid.New(d, cfg.Grid)
	r := global.New(d, g, cfg.Global)
	res.GlobalStats = r.RouteAllCtx(gctx)
	if res.GlobalStats.Cancelled {
		res.degrade("gr", "stage-deadline",
			fmt.Sprintf("global routing stopped after %d nets; RRR/final passes may be short", res.GlobalStats.RoutedNets))
	}
	return session{d: d, g: g, r: r, v: view.New(d, g, r)}, time.Since(t0)
}

// detailRoute runs stage 3 under the DR budget and evaluates.
func detailRoute(ctx context.Context, s session, cfg Config, res *Result) time.Duration {
	t0 := time.Now()
	dctx, cancel := stageCtx(ctx, cfg.Budgets.DR)
	defer cancel()
	res.Metrics = eval.EvaluateCtx(dctx, s.d, s.g, s.r.Routes, cfg.Detail)
	if res.Metrics.Truncated {
		res.degrade("dr", "stage-deadline", "detailed routing truncated; metrics are a lower bound")
	}
	return time.Since(t0)
}

// stage is a flow's middle stage: it runs between global and detailed
// routing on the live session and records what it did in res. An error
// aborts the run before detailed routing.
type stage func(ctx context.Context, s session, cfg Config, p plan, res *Result) error

// plan is one flow run as data: where the design state starts, what runs
// between the two routers, and what the run journals and writes. Every
// exported entry point is a plan; run is the only code that executes one.
type plan struct {
	// k overrides cfg.CRP.Iterations when positive.
	k int
	// The start state. resume continues a checkpointed run from its
	// iteration boundary (notes are Manager.Latest's recovery notes);
	// parent rebuilds a parent run's materialized state for an ECO; with
	// neither, global routing runs fresh on d's placement.
	resume *checkpoint.Snapshot
	notes  []string
	parent *view.State
	// lead is recorded ahead of every other degradation.
	lead []Degradation
	// middle is nil for GR → DR; delta and opts configure the ECO stages.
	middle stage
	delta  *eco.Delta
	opts   ECOOptions
	// ck journals checkpoints and progress events (nil: neither).
	ck               *Checkpointing
	defOut, guideOut io.Writer
}

// run executes a plan: start state → middle stage → detailed routing and
// evaluation → outputs. It alone folds the start-state degradations and
// assembles Timings (Total = GlobalRoute + Middle + DetailRoute; Middle
// includes any checkpoint restore or parent rebuild). Outputs are written
// even when the run degraded — a deadline yields the best-so-far placement
// and guides, never nothing. A failed median-ILP sweep skips detailed
// routing and reports no metrics.
func run(ctx context.Context, d *db.Design, cfg Config, p plan) (*Result, error) {
	ctx, cancel := flowCtx(ctx, cfg)
	defer cancel()
	res := &Result{Degradations: append([]Degradation(nil), p.lead...)}
	t0 := time.Now()
	var s session
	var tGR, tMid, tDR time.Duration
	var err error
	switch {
	case p.resume != nil:
		// A resumed run inherits its admission degradations from the
		// snapshot's log: checkpoint 0 was committed after they were folded.
		for _, dg := range p.resume.Degradations {
			res.degrade(dg.Stage, dg.Kind, dg.Detail)
		}
		for _, n := range p.notes {
			res.degrade("ckpt", "checkpoint-recovery", n)
		}
		s, err = restoreSession(d, p.k, cfg, p.resume)
	case p.parent != nil:
		res.Degradations = append(res.Degradations, cfg.AdmitDegradations...)
		s, err = rebuildSession(d, cfg, *p.parent)
	default:
		res.Degradations = append(res.Degradations, cfg.AdmitDegradations...)
		s, tGR = globalRoute(ctx, d, cfg, res)
		t0 = time.Now()
	}
	if err != nil {
		return nil, err
	}
	if p.middle != nil {
		if err := p.middle(ctx, s, cfg, p, res); err != nil {
			return nil, err
		}
		tMid = time.Since(t0)
	}
	if !res.Failed {
		tDR = detailRoute(ctx, s, cfg, res)
	}
	if err := writeRunOutputs(s, p.defOut, p.guideOut); err != nil {
		return nil, err
	}
	res.Timings = Timings{GlobalRoute: tGR, Middle: tMid, DetailRoute: tDR, Total: tGR + tMid + tDR}
	if res.CRPStats != nil {
		res.Timings.CRPPhases = res.CRPStats.Times()
	}
	return res, nil
}

// crpStage is the CR&P middle stage: a fresh engine commits checkpoint 0
// and runs k iterations; a resumed one runs the remaining iterations from
// its snapshot's boundary.
func crpStage(ctx context.Context, s session, cfg Config, p plan, res *Result) error {
	engine, done, prior := s.engine, 0, 0
	if engine == nil {
		engine = crp.New(s.d, s.g, s.r, crpConfig(cfg, p.k))
		p.ck.save(s, engine, engine.Cfg.Iterations, 0, res) // checkpoint 0: post-GR, pre-loop
		p.ck.event(Event{Kind: "gr", Iter: 0, K: engine.Cfg.Iterations})
	} else {
		done, prior = p.resume.Iter, p.resume.TotalMoved
		p.ck.event(Event{Kind: "resume", Iter: done, K: engine.Cfg.Iterations, TotalMoved: prior})
	}
	res.CRPStats = runCheckpointedLoop(ctx, s, engine, engine.Cfg.Iterations, done, prior, p.ck, res)
	res.CRPStats.TotalMoved += prior
	return nil
}

// sotaStage is the median-ILP sweep [18]. A budget overrun marks the run
// Failed, mirroring the paper's test10 row.
func sotaStage(ctx context.Context, s session, cfg Config, _ plan, res *Result) error {
	res.BaselineStats = medianilp.Run(ctx, s.d, s.g, s.r, cfg.Baseline)
	if res.BaselineStats.Failed {
		res.Failed = true
		res.degrade("sota", "budget-failed", "median-ILP sweep exceeded its budget; design restored")
	}
	return nil
}

// RunBaseline executes GR → DR with no cell movement (the CUGR+TritonRoute
// baseline column of Table III).
func RunBaseline(ctx context.Context, d *db.Design, cfg Config) *Result {
	res, _ := run(ctx, d, cfg, plan{})
	return res
}

// RunCRP executes GR → CR&P×k → DR (the paper's flow). k overrides
// cfg.CRP.Iterations when positive.
func RunCRP(ctx context.Context, d *db.Design, k int, cfg Config) *Result {
	res, _ := run(ctx, d, cfg, plan{k: k, middle: crpStage})
	return res
}

// RunSOTA executes GR → median-ILP sweep [18] → DR. A budget overrun
// reports Failed with no metrics, mirroring the paper's test10 row.
func RunSOTA(ctx context.Context, d *db.Design, cfg Config) *Result {
	res, _ := run(ctx, d, cfg, plan{middle: sotaStage})
	return res
}
