package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/view"
)

// Event is one observable progress point of a checkpointed run. Events are
// pure observations of state the flow already computed: a run with OnEvent
// wired emits the same bytes as one without, exactly like checkpoint
// writes themselves.
type Event struct {
	// Kind is "gr" (the post-global-routing checkpoint), "resume" (a
	// snapshot was loaded and the run continues from it), "iteration"
	// (one CR&P iteration completed) or "degradation" (one
	// fault-tolerance event, as it is recorded).
	Kind string `json:"kind"`
	// Iter counts completed CR&P iterations at the event (0 after GR).
	Iter int `json:"iter"`
	// K is the configured iteration count.
	K int `json:"k,omitempty"`
	// Moved is the iteration's moved-cell count (Kind "iteration").
	Moved int `json:"moved,omitempty"`
	// TotalMoved is the whole-run moved-cell total so far.
	TotalMoved int `json:"total_moved,omitempty"`
	// Stage and Fault identify a "degradation" event (Degradation.Stage
	// and .Kind); Detail carries its human-readable description.
	Stage  string `json:"stage,omitempty"`
	Fault  string `json:"fault,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Checkpointing configures crash-safe journaling of the CR&P loop. The
// Manager owns the checkpoint directory; a snapshot is committed after
// global routing (checkpoint 0) and after every transactionally committed
// CR&P iteration, so at most one iteration of work is ever lost to a crash.
//
// Checkpoint writes are pure observers of the pipeline: every snapshot is
// taken from state the flow already computed, so a run with checkpointing
// enabled is bit-identical to one without it, and a failed checkpoint write
// degrades the run (Result.Degradations, stage "ckpt") instead of stopping
// it.
type Checkpointing struct {
	Manager *checkpoint.Manager
	// AfterSave, when non-nil, runs after the Nth (1-based) successful
	// checkpoint commit. The crash-chaos suite hangs process kills and
	// cancellation off it, and the job service hangs its boundary-gated
	// preemption off it; production batch runs leave it nil.
	AfterSave func(n int)
	// OnEvent, when non-nil, observes the run's progress stream: the
	// post-GR boundary, each completed iteration, each degradation as it
	// is recorded, and (on Resume) the restored boundary. The callback
	// runs synchronously on the flow goroutine; it must not block. It
	// fires even when Manager is nil, so progress streaming does not
	// require durability.
	OnEvent func(Event)

	saves int
}

// event reports one progress point; nil-safe like save.
func (ck *Checkpointing) event(e Event) {
	if ck == nil || ck.OnEvent == nil {
		return
	}
	ck.OnEvent(e)
}

// ErrNoCheckpoint re-exports the manager's "nothing to resume" error so
// callers of Resume need not import internal/checkpoint to fall back to a
// fresh run.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// snapshot captures the resumable state at the current iteration boundary:
// the design state materializes through the view's single exporter, the
// rest is flow metadata.
func snapshotState(s session, engine *crp.Engine, kEff int, totalMoved int, degs []Degradation) *checkpoint.Snapshot {
	st := engine.State()
	snap := &checkpoint.Snapshot{
		DesignName: s.d.Name,
		Cells:      len(s.d.Cells),
		Nets:       len(s.d.Nets),
		K:          kEff,
		Seed:       engine.Cfg.Seed,
		Iter:       st.Iter,
		RNGDraws:   st.RNGDraws,
		TotalMoved: totalMoved,
	}
	snap.SetViewState(s.v.Materialize())
	for _, d := range degs {
		snap.Degradations = append(snap.Degradations,
			checkpoint.Degradation{Stage: d.Stage, Kind: d.Kind, Detail: d.Detail})
	}
	return snap
}

// save commits one checkpoint. Failures degrade the run instead of
// stopping it: the pipeline's answer does not depend on durability, only
// the crash-recovery story does.
func (ck *Checkpointing) save(s session, engine *crp.Engine, kEff, totalMoved int, res *Result) {
	if ck == nil || ck.Manager == nil {
		return
	}
	snap := snapshotState(s, engine, kEff, totalMoved, res.Degradations)
	if err := ck.Manager.Save(snap); err != nil {
		res.degrade("ckpt", "checkpoint-write-failed",
			fmt.Sprintf("iter %d: %v", snap.Iter, err))
		return
	}
	ck.saves++
	if ck.AfterSave != nil {
		ck.AfterSave(ck.saves)
	}
}

// runCheckpointedLoop is the flow's only CR&P loop. It runs iterations
// startIter+1..kEff, stopping at a cancelled context or a broken engine,
// folds each iteration's degradations into res as they happen, and commits
// a checkpoint after each completed iteration (when ck has a Manager).
// startIter is the number of already-committed iterations (0 on a fresh
// run); priorMoved carries a resumed run's accumulated move count so
// checkpoints record whole-run totals. ECO rounds run it with kEff 1 and a
// nil ck.
func runCheckpointedLoop(ctx context.Context, s session, engine *crp.Engine, kEff, startIter, priorMoved int, ck *Checkpointing, res *Result) *crp.Result {
	stats := &crp.Result{}
	for k := startIter; k < kEff; k++ {
		if err := ctx.Err(); err != nil {
			d := crp.Degradation{Iter: k + 1, Kind: "run-cancelled", Detail: err.Error()}
			stats.Degradations = append(stats.Degradations, d)
			res.degrade("crp", d.Kind, fmt.Sprintf("iter %d: %s", d.Iter, d.Detail))
			ck.event(Event{Kind: "degradation", Iter: k, K: kEff, Stage: "crp", Fault: d.Kind, Detail: d.Detail})
			break
		}
		st := engine.Iterate(ctx)
		stats.Iterations = append(stats.Iterations, st)
		stats.TotalMoved += st.MovedCells
		stats.Degradations = append(stats.Degradations, st.Degradations...)
		for _, d := range st.Degradations {
			res.degrade("crp", d.Kind, fmt.Sprintf("iter %d: %s", d.Iter, d.Detail))
			ck.event(Event{Kind: "degradation", Iter: k, K: kEff, Stage: "crp", Fault: d.Kind, Detail: d.Detail})
		}
		if ctx.Err() != nil {
			// The run was cancelled while the iteration executed. Do NOT
			// commit this iteration's checkpoint: a cancellation-induced
			// rollback happens at a timing-dependent point, so journaling
			// it would make a resumed run diverge from an uninterrupted
			// one. The previous boundary's snapshot stands, and resume
			// replays this iteration deterministically from there.
			break
		}
		// Checkpoint every completed iteration, including deterministically
		// rolled-back ones (deadline/invariant rollbacks): their history
		// marks and RNG draws are part of the committed stream the next
		// iteration depends on.
		ck.save(s, engine, kEff, priorMoved+stats.TotalMoved, res)
		ck.event(Event{Kind: "iteration", Iter: k + 1, K: kEff,
			Moved: st.MovedCells, TotalMoved: priorMoved + stats.TotalMoved})
		if engine.Broken() {
			break
		}
	}
	stats.CandidateEstimates = engine.EstimateCount()
	return stats
}

// writeRunOutputs emits the flow's DEF and route-guide outputs.
func writeRunOutputs(s session, defOut, guideOut io.Writer) error {
	if defOut != nil {
		if err := lefdef.WriteDEF(defOut, s.d); err != nil {
			return fmt.Errorf("flow: writing DEF: %w", err)
		}
	}
	if guideOut != nil {
		if err := lefdef.WriteGuides(guideOut, s.d, s.g, s.r.Routes); err != nil {
			return fmt.Errorf("flow: writing guides: %w", err)
		}
	}
	return nil
}

// RunCRPCheckpointed runs the CR&P flow and writes the resulting DEF and
// route-guide files (the framework's outputs in Fig. 1), with crash-safe
// journaling: a checkpoint is committed after global routing and after
// every CR&P iteration. With ck nil (or an empty Checkpointing) it is the
// plain CR&P flow with outputs.
func RunCRPCheckpointed(ctx context.Context, d *db.Design, k int, cfg Config, ck *Checkpointing, defOut, guideOut io.Writer) (*Result, error) {
	return run(ctx, d, cfg, plan{k: k, middle: crpStage, ck: ck, defOut: defOut, guideOut: guideOut})
}

// Resume continues an interrupted checkpointed run. It loads the newest
// usable checkpoint from ck.Manager (falling back across corrupt ones),
// restores the design, grid, routes and engine to the recorded iteration
// boundary, re-runs the transactional invariant checker to refuse a
// mismatched or corrupted restore, and then continues exactly where the
// interrupted run stopped — the remaining iterations, detailed routing and
// outputs are bit-identical to a run that was never interrupted.
//
// d must be the same design the original run loaded (same input files);
// cfg and k must match the original configuration. Mismatches are detected
// via the identity fields recorded in the checkpoint and refused.
// ErrNoCheckpoint is returned when the directory has nothing usable —
// callers typically fall back to a fresh RunCRPCheckpointed.
func Resume(ctx context.Context, d *db.Design, k int, cfg Config, ck *Checkpointing, defOut, guideOut io.Writer) (*Result, error) {
	snap, notes, err := latest(ck.manager(), d)
	if err != nil {
		return nil, err
	}
	return run(ctx, d, cfg, plan{k: k, resume: snap, notes: notes, middle: crpStage, ck: ck, defOut: defOut, guideOut: guideOut})
}

// manager is nil-safe like save and event.
func (ck *Checkpointing) manager() *checkpoint.Manager {
	if ck == nil {
		return nil
	}
	return ck.Manager
}

// latest loads mgr's newest usable snapshot and refuses one recorded for a
// different design — the identity check every checkpoint consumer (Resume,
// CheckpointOutputs, ECOFromCheckpoint) shares.
func latest(mgr *checkpoint.Manager, d *db.Design) (*checkpoint.Snapshot, []string, error) {
	if mgr == nil {
		return nil, nil, errors.New("flow: no checkpoint manager")
	}
	snap, notes, err := mgr.Latest()
	if err != nil {
		return nil, nil, err
	}
	if snap.DesignName != d.Name || snap.Cells != len(d.Cells) || snap.Nets != len(d.Nets) {
		return nil, nil, fmt.Errorf("flow: checkpoint is for design %q (%d cells, %d nets), input is %q (%d cells, %d nets)",
			snap.DesignName, snap.Cells, snap.Nets, d.Name, len(d.Cells), len(d.Nets))
	}
	return snap, notes, nil
}

// rebuildSession rebuilds the live session from a materialized view state
// through the view layer's single Rebuild path.
func rebuildSession(d *db.Design, cfg Config, st view.State) (session, error) {
	v, err := view.Rebuild(d, cfg.Grid, cfg.Global, st)
	if err != nil {
		return session{}, fmt.Errorf("flow: %w", err)
	}
	return session{d: d, g: v.Grid(), r: v.Router(), v: v}, nil
}

// restoreSession rebuilds the live session (design placement and history,
// grid demand, committed routes, engine state) from a snapshot and
// validates it. The design state goes through rebuildSession, whose
// view.Rebuild owns the ordering constraint the restore depends on (grid
// construction after position restore, recorded demand overwriting the
// fresh seeding verbatim — see view.Rebuild). The engine's
// construction-time residuals (grid demand minus committed-route demand)
// then reproduce the original run's exactly, which the invariant check
// confirms before any iteration runs. The snapshot's design identity is
// checked by latest.
func restoreSession(d *db.Design, k int, cfg Config, snap *checkpoint.Snapshot) (session, error) {
	ccfg := crpConfig(cfg, k)
	if snap.K != ccfg.Iterations || snap.Seed != ccfg.Seed {
		return session{}, fmt.Errorf("flow: checkpoint recorded k=%d seed=%d, run configured k=%d seed=%d",
			snap.K, snap.Seed, ccfg.Iterations, ccfg.Seed)
	}
	if snap.Iter > snap.K {
		return session{}, fmt.Errorf("flow: checkpoint iteration %d exceeds k=%d", snap.Iter, snap.K)
	}
	s, err := rebuildSession(d, cfg, snap.ViewState())
	if err != nil {
		return session{}, err
	}
	s.engine = crp.New(d, s.g, s.r, ccfg)
	if err := s.engine.RestoreState(crp.State{Iter: snap.Iter, RNGDraws: snap.RNGDraws}); err != nil {
		return session{}, fmt.Errorf("flow: restoring engine state: %w", err)
	}
	if err := s.engine.CheckInvariants(); err != nil {
		return session{}, fmt.Errorf("flow: restored state fails invariants: %w", err)
	}
	return s, nil
}

// CheckpointOutputs materializes the best-so-far DEF and route-guide bytes
// from the newest usable checkpoint — the state a resumed run would
// continue from — without running further iterations or detailed routing.
// It is the read side of the job service's "fetch best-so-far mid-run"
// endpoint. d, k and cfg must match the checkpointed run, exactly as for
// Resume; the call restores positions into d as a side effect, so callers
// pass a freshly parsed design. The returned iter is the checkpoint's
// completed-iteration count. ErrNoCheckpoint means nothing usable exists
// yet.
func CheckpointOutputs(d *db.Design, k int, cfg Config, mgr *checkpoint.Manager) (defB, guideB []byte, iter int, err error) {
	snap, _, err := latest(mgr, d)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := restoreSession(d, k, cfg, snap)
	if err != nil {
		return nil, nil, 0, err
	}
	var def, guide bytes.Buffer
	if err := writeRunOutputs(s, &def, &guide); err != nil {
		return nil, nil, 0, err
	}
	return def.Bytes(), guide.Bytes(), snap.Iter, nil
}
