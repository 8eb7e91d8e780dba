package flow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/view"
)

// ECOOptions tunes the incremental re-run. The zero value takes the
// defaults.
type ECOOptions struct {
	// HaloGCells sizes the dirty region's halo in GCells (0: 4): the margin
	// around every edit inside which cells may still interact with it.
	HaloGCells int
}

// ecoMaxRounds bounds the local re-label rounds per ladder rung before the
// next rung engages — widen halo, then full-run fallback. Each round is a
// single scoped CR&P iteration; the rounds re-scope between iterations.
const ecoMaxRounds = 3

// ECOStats reports what the incremental entry point did: the delta's size,
// how local the re-run stayed, and the work actually spent — the numbers the
// ≥10×-less-work acceptance bar is checked against.
type ECOStats struct {
	DeltaMoves   int
	DeltaNets    int
	DeltaAdds    int
	DeltaRemoves int
	// DirtyCells is the number of cells inside the initial dirty region
	// (the local rung's candidate pool); TotalCells the design size.
	DirtyCells int
	TotalCells int
	// Rounds counts re-label rounds run (0 when the full-run fallback
	// engaged immediately on a structural delta).
	Rounds int
	// HaloWidened / FullRun record which ladder rungs engaged; both are
	// also visible as "eco"-stage entries in Result.Degradations.
	HaloWidened bool
	FullRun     bool
	// CandidateEstimates is the total Algorithm 3 pricing work of the
	// re-run (mirrors Result.CRPStats.CandidateEstimates).
	CandidateEstimates int64
}

// appendRun folds one engine run into the aggregate CR&P stats of a
// multi-round ECO re-run.
func appendRun(dst, src *crp.Result) {
	dst.Iterations = append(dst.Iterations, src.Iterations...)
	dst.TotalMoved += src.TotalMoved
	dst.CandidateEstimates += src.CandidateEstimates
	dst.Degradations = append(dst.Degradations, src.Degradations...)
}

// RunECO is the incremental entry point: re-run CR&P after a small design
// edit without paying for a full run. prev is the parent run's materialized
// view state. With prev nil the parent's placement is already in d and
// global routing runs fresh on it: cmd/crp -eco-delta without -eco-from,
// which has the parent's DEF but no checkpoint of it. A crpd ECO job
// starts from its parent's checkpoint, through ECOFromCheckpoint.
//
// The delta is validated in full before anything mutates — a malformed edit
// is a structured rejection, never a half-applied design. A non-structural
// delta is applied through one view.Txn (journal-captured, invariant-checked)
// and then climbs the convergence ladder:
//
//	rung 1: re-label locally — only cells intersecting the halo-inflated
//	        dirty region are Algorithm 1 candidates; each round is one
//	        scoped CR&P iteration whose moves grow the region, and the loop
//	        exits early when the frontier stops growing;
//	rung 2: widen the halo once if the frontier is still growing after
//	        ecoMaxRounds rounds ("halo-widened" degradation);
//	rung 3: full unscoped run ("full-run-fallback" degradation).
//
// A structural delta (added/removed cells) changes the cell-ID space, so it
// rebuilds the design and takes rung 3 directly. Everything is
// deterministic: rerunning the same (parent state, delta) yields
// byte-identical outputs, which is what lets a crashed ECO job simply rerun
// and what makes the service's parent-hash+delta cache key sound.
func RunECO(ctx context.Context, d *db.Design, prev *view.State, delta *eco.Delta, cfg Config, opts ECOOptions, defOut, guideOut io.Writer) (*Result, error) {
	return runECO(ctx, d, prev, delta, cfg, plan{opts: opts, defOut: defOut, guideOut: guideOut})
}

// ECOFromCheckpoint runs RunECO from a parent run's newest checkpoint
// snapshot — the cmd/crp `-eco-from <ckpt> -eco-delta <json>` path. d must
// be the same design the parent run loaded; identity is validated against
// the snapshot before anything runs. A snapshot the manager skipped for a
// corrupt one is reported as a "checkpoint-recovery" degradation, as
// Resume reports it.
func ECOFromCheckpoint(ctx context.Context, d *db.Design, mgr *checkpoint.Manager, delta *eco.Delta, cfg Config, opts ECOOptions, defOut, guideOut io.Writer) (*Result, error) {
	snap, notes, err := latest(mgr, d)
	if err != nil {
		return nil, err
	}
	st := snap.ViewState()
	return runECO(ctx, d, &st, delta, cfg, plan{notes: notes, opts: opts, defOut: defOut, guideOut: guideOut})
}

// runECO is RunECO with the rest of the plan (recovery notes, options,
// outputs) supplied by the entry point.
func runECO(ctx context.Context, d *db.Design, prev *view.State, delta *eco.Delta, cfg Config, p plan) (*Result, error) {
	if delta == nil {
		return nil, errors.New("flow: RunECO needs a delta")
	}
	p.delta = delta
	if !delta.Structural() {
		p.parent, p.middle = prev, ecoStage
		return run(ctx, d, cfg, p)
	}
	if prev != nil {
		if err := d.ImportPositions(prev.Pos, prev.Orient); err != nil {
			return nil, fmt.Errorf("flow: importing parent placement: %w", err)
		}
	}
	d2, err := eco.ApplyStructural(d, delta)
	if err != nil {
		return nil, err
	}
	p.lead = []Degradation{{Stage: "eco", Kind: "full-run-fallback",
		Detail: fmt.Sprintf("structural delta (%d adds, %d removes) rebuilds the design; no incremental path", len(delta.Adds), len(delta.Removes))}}
	p.middle = ecoFullRunStage
	return run(ctx, d2, cfg, p)
}

// ecoFullRunStage is a structural delta's middle stage: the plain CR&P
// loop on the rebuilt design, reported as the ladder's third rung.
func ecoFullRunStage(ctx context.Context, s session, cfg Config, p plan, res *Result) error {
	if err := crpStage(ctx, s, cfg, p, res); err != nil {
		return err
	}
	res.ECO = &ECOStats{
		DeltaMoves: len(p.delta.Moves), DeltaNets: len(p.delta.Nets),
		DeltaAdds: len(p.delta.Adds), DeltaRemoves: len(p.delta.Removes),
		TotalCells: len(s.d.Cells), FullRun: true,
		CandidateEstimates: res.CRPStats.CandidateEstimates,
	}
	return nil
}

// ecoStage is a non-structural delta's middle stage: apply the delta
// transactionally, then climb the convergence ladder (see RunECO).
func ecoStage(ctx context.Context, s session, cfg Config, p plan, res *Result) error {
	d, delta := s.d, p.delta
	// Validate against the live (parent) placement, then apply through one
	// transaction. On any failure the transaction is discarded: the design,
	// demand and routes are exactly the parent state again.
	if err := delta.Validate(d); err != nil {
		return err
	}
	ops, err := delta.Resolve(d)
	if err != nil {
		return err
	}
	txn := s.v.Begin(s.v.Version())
	if err := txn.ApplyDelta(ops); err != nil {
		txn.Discard()
		return fmt.Errorf("flow: applying eco delta: %w", err)
	}
	if err := txn.Check(); err != nil {
		txn.Discard()
		return fmt.Errorf("flow: eco delta failed invariants: %w", err)
	}
	txn.Commit()

	ccfg := crpConfig(cfg, 0)
	gsz := s.g.GCellRect(0, 0).W()
	if gsz <= 0 {
		gsz = 1
	}
	halo := p.opts.HaloGCells
	if halo <= 0 {
		halo = 4
	}
	// The halo is HaloGCells routing GCells, clamped to 1/64 of the die: on a
	// small design the grid can degenerate to a handful of die-sized GCells,
	// and an unclamped halo would mark everything dirty — the ladder's
	// widen/full-run rungs recover any interaction a tight halo misses.
	haloDBU := halo * gsz
	if m := min(d.Die.W(), d.Die.H()) / 64; m > 0 && haloDBU > m {
		haloDBU = m
	}
	tracker := eco.NewTracker(d.Die, haloDBU)

	// Seed the dirty region: each moved cell's new footprint (the move has
	// already been applied through the transaction) plus a rect around every
	// terminal of every net the delta perturbed (moved-cell nets and rewired
	// nets alike were just rerouted). Cell footprints, not legalizer windows:
	// the tracker's halo supplies the interaction margin, and a full window
	// (NSites x NRows of slots) is die-scale on small designs — seeding with
	// it marks most of the die dirty and defeats the locality the ladder
	// exists to exploit. Terminals, not whole-net bounding boxes, for the
	// same reason: a die-spanning net would coalesce to the whole die.
	seedNets := map[int32]bool{}
	for _, mv := range delta.Moves {
		c, _ := d.CellByName(mv.Cell)
		tracker.Add(c.Rect())
		for _, nid := range c.Nets {
			seedNets[nid] = true
		}
	}
	for _, nc := range ops.Nets {
		seedNets[nc.Net] = true
	}
	nids := make([]int32, 0, len(seedNets))
	for nid := range seedNets {
		nids = append(nids, nid)
	}
	sort.Slice(nids, func(a, b int) bool { return nids[a] < nids[b] })
	for _, nid := range nids {
		for _, pt := range d.NetPinPositions(d.Nets[nid]) {
			tracker.Add(geom.Rect{Lo: pt, Hi: pt.Add(geom.Pt(1, 1))})
		}
	}

	scope := func(id int32) bool { return tracker.Overlaps(d.Cells[id].Rect()) }
	dirty := 0
	for _, c := range d.Cells {
		if scope(c.ID) {
			dirty++
		}
	}

	stats := &crp.Result{}
	rounds, rungRounds := 0, 0
	widened, fullRun := false, false
	for {
		if err := ctx.Err(); err != nil {
			res.degrade("eco", "run-cancelled", err.Error())
			break
		}
		rounds++
		rungRounds++
		rcfg := ccfg
		rcfg.Scope = scope
		engine := crp.New(s.d, s.g, s.r, rcfg)
		pre, _ := d.ExportPositions()
		r := runCheckpointedLoop(ctx, s, engine, 1, 0, 0, nil, res)
		appendRun(stats, r)
		if engine.Broken() {
			break
		}
		// Grow the frontier by each mover's old and new footprint. The
		// halo-inflated footprints — not legalizer windows — are the growth
		// unit: any cell the move displaced or any net it stretched will
		// itself show up as a mover (or a demand shift inside the halo) in
		// the next round, so the frontier follows the real perturbation
		// instead of coalescing window-sized rects into the whole die.
		post, _ := d.ExportPositions()
		areaBefore := tracker.Area()
		for i := range post {
			if post[i] == pre[i] {
				continue
			}
			c := d.Cells[i]
			tracker.Add(c.RectAt(pre[i]))
			tracker.Add(c.Rect())
		}
		// Only material growth (>10% of the region per round) keeps the
		// ladder climbing: the parent run is not a fixed point, so scoped
		// re-labeling always finds a stray profitable move somewhere, and a
		// single far-flung mover must not read as an expanding perturbation.
		grew := 10*tracker.Area() > 11*areaBefore
		if r.TotalMoved == 0 || !grew {
			break // converged, or the frontier stopped growing: done
		}
		// Locality is lost once the dirty region reaches half the die (Area
		// is an upper bound, so this is conservative): scoping buys nothing
		// and the honest answer is an unscoped run.
		coverLost := tracker.CoversDie() || tracker.Area() >= d.Die.Area()/2
		if !coverLost && rungRounds < ecoMaxRounds {
			continue
		}
		// Widen only while the region is still compact (≤ 1/8 of the die):
		// inflating an already-sprawling region just manufactures the
		// coverage loss the fallback gate watches for.
		if !coverLost && !widened && tracker.Area() <= d.Die.Area()/8 {
			widened = true
			rungRounds = 0
			tracker.Widen(2 * haloDBU)
			res.degrade("eco", "halo-widened",
				fmt.Sprintf("dirty frontier still growing after %d local rounds; halo widened", rounds))
			continue
		}
		if coverLost {
			fullRun = true
			res.degrade("eco", "full-run-fallback",
				fmt.Sprintf("dirty region reached %d%% of the die after %d rounds; running unscoped", 100*tracker.Area()/d.Die.Area(), rounds))
			fe := crp.New(s.d, s.g, s.r, ccfg)
			appendRun(stats, runCheckpointedLoop(ctx, s, fe, fe.Cfg.Iterations, 0, 0, nil, res))
			break
		}
		// Still-moving frontier after both local rungs, but the region is
		// small: the bounded local refinement stands. The residual motion is
		// ordinary optimization pressure (the parent run was not a fixed
		// point), not unabsorbed delta disruption — rerunning to quiescence
		// would just re-optimize the whole design through a peephole.
		res.degrade("eco", "frontier-active",
			fmt.Sprintf("dirty frontier still active after %d rounds; keeping the local result", rounds))
		break
	}

	res.CRPStats = stats
	res.ECO = &ECOStats{
		DeltaMoves: len(delta.Moves), DeltaNets: len(delta.Nets),
		DirtyCells: dirty, TotalCells: len(d.Cells),
		Rounds: rounds, HaloWidened: widened, FullRun: fullRun,
		CandidateEstimates: stats.CandidateEstimates,
	}
	return nil
}
