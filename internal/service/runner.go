package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/lefdef"
)

// Worker attempt exit protocol. In child-process mode these are real
// process exit codes; in in-process mode the same codes flow through the
// supervise.Job return value, so the pool handles both modes identically.
const (
	// ExitPreempted reports a checkpoint-backed preemption: the attempt
	// stopped at a snapshot boundary on request and wrote no outputs. The
	// job must be requeued, not retried or failed.
	ExitPreempted = 44
	// ExitFenced reports that the attempt's durable writes were refused by
	// the lease fence: this node's claim was superseded — the job belongs
	// to another node now. The pool must detach (no retry, no release, no
	// state writes); the thief's run is the only one that counts.
	ExitFenced = 45
	// exitFailure is an ordinary failed attempt (retry from checkpoint).
	exitFailure = 1
)

// Environment of a child worker process (see RunWorkerAttempt).
const (
	// EnvRunJob carries the job directory; its presence turns a crpd (or
	// test binary) invocation into a single-attempt worker process.
	EnvRunJob = "CRPD_RUN_JOB"
	// EnvAttempt carries the 1-based attempt number for event attribution.
	EnvAttempt = "CRPD_ATTEMPT"
	// EnvGrace carries the preemption grace (time.Duration string) after
	// which a stop request stops waiting for a checkpoint boundary.
	EnvGrace = "CRPD_GRACE"
	// EnvNode and EnvToken carry the parent's node id and claimed fencing
	// token; the child fences its durable writes against the on-disk lease
	// record and exits ExitFenced when superseded.
	EnvNode  = "CRPD_NODE"
	EnvToken = "CRPD_LEASE_TOKEN"
	// EnvCacheDir carries the exact-result-cache root the child populates
	// after a successful commit; empty skips population.
	EnvCacheDir = "CRPD_CACHE_DIR"
)

// attemptEnv is everything one worker attempt needs beyond the job
// directory contents.
type attemptEnv struct {
	dir     string
	attempt int
	// grace bounds how long a preemption request waits for the next
	// checkpoint boundary before hard-cancelling the flow (a stage that
	// commits no checkpoints — GR, DR — would otherwise stall a drain).
	grace time.Duration
	// instrument, when non-nil, may rewrite the attempt's flow config and
	// checkpointing before the run — the service-level chaos seam.
	instrument func(*flow.Config, *flow.Checkpointing)
	// publish journals one event (and, in-process, wakes streamers). The
	// caller is expected to have wrapped it in the fence: a stale owner's
	// events must be dropped, not appended to a journal it no longer owns.
	publish func(Event)
	// fence guards every durable write of this attempt (checkpoints, final
	// outputs, cache population) with the claim's lease token; nil runs
	// unfenced (legacy single-node invocation).
	fence func() error
	// onFlow, when non-nil, receives the flow's hard-cancel as soon as it
	// exists — the seam Halt uses to kill an in-process attempt instantly.
	onFlow func(cancel func())
	// cacheDir is the exact-result-cache root to populate on success;
	// empty skips population.
	cacheDir string
}

// runFlowAttempt executes one attempt of the job in env.dir: load the spec,
// prepare the job kind's flow call (see prepareCRP and prepareECO), run it
// with every progress point journaled, and commit the outputs atomically
// and populate the result cache on completion.
//
// ctx is the preemption channel, not the flow's context: a cancellation
// only takes effect at the next checkpoint boundary (via AfterSave), or
// after env.grace for boundary-free stages — so a preempted attempt never
// journals a timing-dependent rollback and resume stays bit-identical.
func runFlowAttempt(ctx context.Context, env attemptEnv) int {
	spec, err := loadSpec(env.dir)
	if err != nil {
		return failAttempt(env, fmt.Errorf("loading spec: %w", err))
	}
	prepare := prepareCRP
	if spec.isECO() {
		prepare = prepareECO
	}
	run, err := prepare(env, spec)
	if err != nil {
		return failAttempt(env, err)
	}

	// fctx is the context the flow actually runs under. It is decoupled
	// from ctx so that preemption is boundary-gated: AfterSave trips it at
	// the first checkpoint commit past the request, and the grace watchdog
	// trips it when no boundary arrives in time.
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	if env.onFlow != nil {
		env.onFlow(fcancel)
	}
	go func() {
		select {
		case <-ctx.Done():
			t := time.NewTimer(env.grace)
			defer t.Stop()
			select {
			case <-t.C:
				fcancel()
			case <-fctx.Done():
			}
		case <-fctx.Done():
		}
	}()

	cfg := spec.FlowConfig()
	ck := &flow.Checkpointing{
		AfterSave: func(int) {
			if ctx.Err() != nil {
				fcancel()
			}
		},
		OnEvent: func(e flow.Event) { env.publish(flowEvent(e, env.attempt)) },
	}
	if env.instrument != nil {
		env.instrument(&cfg, ck)
	}

	var def, guide bytes.Buffer
	res, err := run(fctx, cfg, ck, &def, &guide)
	if ctx.Err() != nil {
		// Preempted: the last committed snapshot (none for an ECO attempt,
		// which reruns from the parent's committed state) is the hand-off
		// point; the partial outputs of this attempt are discarded.
		env.publish(Event{Kind: "preempted", Attempt: env.attempt})
		return ExitPreempted
	}
	if err != nil {
		return failAttempt(env, err)
	}

	out := result{
		Metrics: Metrics{
			WirelengthDBU: res.Metrics.WirelengthDBU,
			Vias:          res.Metrics.Vias,
			Score:         res.Metrics.Score,
			Truncated:     res.Metrics.Truncated,
		},
		TotalMoved: res.CRPStats.TotalMoved,
		Iterations: len(res.CRPStats.Iterations),
	}
	if e := res.ECO; e != nil {
		out.ECO = &ECOSummary{
			DirtyCells:         e.DirtyCells,
			TotalCells:         e.TotalCells,
			Rounds:             e.Rounds,
			HaloWidened:        e.HaloWidened,
			FullRun:            e.FullRun,
			CandidateEstimates: e.CandidateEstimates,
		}
	}
	for _, dg := range res.Degradations {
		out.Degradations = append(out.Degradations, dg.String())
	}
	if err := commitResult(env.dir, out, def.Bytes(), guide.Bytes(), env.fence); err != nil {
		if errors.Is(err, ErrFenced) {
			// The claim was superseded mid-run: this node is a zombie for
			// the job. Nothing was published (the fence runs before every
			// rename); hand the verdict to the pool.
			return ExitFenced
		}
		return failAttempt(env, fmt.Errorf("committing outputs: %w", err))
	}
	if hash, err := jobHash(*spec, filepath.Dir(env.dir)); err == nil {
		// Best effort: a failed population only costs a future cache
		// miss. The fence still guards the publishing rename.
		populateCache(env.cacheDir, hash, env.dir, !spec.isECO(), env.fence)
	}
	return 0
}

// attemptRun is the one flow call an attempt makes; runFlowAttempt supplies
// everything around it.
type attemptRun func(ctx context.Context, cfg flow.Config, ck *flow.Checkpointing, def, guide io.Writer) (*flow.Result, error)

// prepareCRP builds a CR&P job's design and opens its per-job checkpoint
// manager; the run resumes from the newest checkpoint or starts fresh.
func prepareCRP(env attemptEnv, spec *Spec) (attemptRun, error) {
	d, err := spec.Design()
	if err != nil {
		return nil, fmt.Errorf("building design: %w", err)
	}
	mgr, err := checkpoint.Open(filepath.Join(env.dir, ckptDirName), 0)
	if err != nil {
		return nil, fmt.Errorf("opening checkpoints: %w", err)
	}
	if env.fence != nil {
		// Every checkpoint snapshot and manifest commit now verifies the
		// claim's token immediately before its publishing rename; a fenced
		// save surfaces as a flow "checkpoint-write-failed" degradation.
		mgr.SetGuard(env.fence)
	}
	return func(ctx context.Context, cfg flow.Config, ck *flow.Checkpointing, def, guide io.Writer) (*flow.Result, error) {
		ck.Manager = mgr
		res, err := flow.Resume(ctx, d, 0, cfg, ck, def, guide)
		if errors.Is(err, flow.ErrNoCheckpoint) {
			res, err = flow.RunCRPCheckpointed(ctx, d, 0, cfg, ck, def, guide)
		}
		return res, err
	}, nil
}

// prepareECO builds an incremental ECO job's base from the parent job's
// committed final state, read from the parent's directory instead of
// recomputed: the netlist and placement from its out.def, parsed against
// its library (Spec.Library), and its routes, demand and history from its
// newest checkpoint, which flow.ECOFromCheckpoint restores, as cmd/crp
// -eco-from does. checkECOBase refuses a checkpoint that is not the state
// out.def was written from. ECO attempts keep no checkpoints: the
// incremental run is deterministic and short, so a preempted or crashed
// attempt reruns from the parent's committed state and commits
// byte-identical artifacts.
func prepareECO(env attemptEnv, spec *Spec) (attemptRun, error) {
	parentDir := filepath.Join(filepath.Dir(env.dir), spec.ParentJob)
	parentSpec, err := loadSpec(parentDir)
	if err != nil {
		return nil, fmt.Errorf("loading parent spec: %w", err)
	}
	t, macros, err := parentSpec.Library()
	if err != nil {
		return nil, fmt.Errorf("building parent library: %w", err)
	}
	defData, err := os.ReadFile(filepath.Join(parentDir, "out.def"))
	if err != nil {
		return nil, fmt.Errorf("reading parent output: %w", err)
	}
	base, err := lefdef.ParseDEF(bytes.NewReader(defData), t, macros)
	if err != nil {
		return nil, fmt.Errorf("parsing parent output: %w", err)
	}
	mgr := checkpoint.OpenReadOnly(filepath.Join(parentDir, ckptDirName))
	if err := checkECOBase(base, mgr); err != nil {
		return nil, fmt.Errorf("parent job %s: %w", spec.ParentJob, err)
	}
	delta, err := eco.Parse(spec.ECODelta)
	if err != nil {
		return nil, fmt.Errorf("parsing delta: %w", err)
	}
	return func(ctx context.Context, cfg flow.Config, _ *flow.Checkpointing, def, guide io.Writer) (*flow.Result, error) {
		env.publish(Event{Kind: "eco-start", Attempt: env.attempt, Detail: spec.ParentJob})
		return flow.ECOFromCheckpoint(ctx, base, mgr, delta, cfg, flow.ECOOptions{}, def, guide)
	}, nil
}

// errStaleECOBase marks an ECO parent whose newest checkpoint is not the
// final state its out.def was written from. The attempt fails with it, and
// journals it as an "eco-base-stale" fault; it never runs from that base.
var errStaleECOBase = errors.New("stale eco base")

// checkECOBase checks that mgr's newest checkpoint is the parent run's
// last (its Iter equals its K) and that its placement is base's, the
// parent's out.def. A failed last save, a deadline that cut an iteration
// short, or a newest checkpoint lost to corruption leaves an older
// checkpoint newest, whose routes and demand belong to another placement.
func checkECOBase(base *db.Design, mgr *checkpoint.Manager) error {
	snap, _, err := mgr.Latest()
	if err != nil {
		return fmt.Errorf("%w: %v", errStaleECOBase, err)
	}
	if snap.Iter != snap.K {
		return fmt.Errorf("%w: newest checkpoint is iteration %d of %d", errStaleECOBase, snap.Iter, snap.K)
	}
	pos, orient := base.ExportPositions()
	if !slices.Equal(pos, snap.Pos) || !slices.Equal(orient, snap.Orient) {
		return fmt.Errorf("%w: newest checkpoint's placement is not out.def's", errStaleECOBase)
	}
	return nil
}

// failAttempt journals an attempt failure and returns the retryable code.
func failAttempt(env attemptEnv, err error) int {
	fault := "attempt-failed"
	if errors.Is(err, errStaleECOBase) {
		fault = "eco-base-stale"
	}
	env.publish(Event{Kind: "degradation", Attempt: env.attempt,
		Stage: "service", Fault: fault, Detail: err.Error()})
	return exitFailure
}

// commitResult atomically writes the job's final outputs and result
// summary. Each file commits independently via temp+fsync+rename, with the
// guard (the writer's lease fence; nil unfenced) verified immediately
// before each rename; the result.json write is last, so its presence
// implies complete outputs.
func commitResult(dir string, out result, defB, guideB []byte, guard func() error) error {
	if err := atomicio.WriteFileBytesGuarded(filepath.Join(dir, "out.def"), guard, defB); err != nil {
		return err
	}
	if err := atomicio.WriteFileBytesGuarded(filepath.Join(dir, "out.guide"), guard, guideB); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytesGuarded(filepath.Join(dir, "result.json"), guard, data)
}

func loadSpec(dir string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// RunWorkerAttempt is the child-process worker entry point: crpd (and the
// service test binary) re-exec themselves with CRPD_RUN_JOB=<dir> to run
// exactly one attempt in an isolated process, so a worker crash — real
// SIGKILL included — can never take the daemon or its other jobs down.
// SIGTERM requests a checkpoint-backed preemption (exit ExitPreempted).
// When the parent passed a node id and lease token (CRPD_NODE,
// CRPD_LEASE_TOKEN), every durable write the child performs is fenced
// against the on-disk lease record; a superseded child exits ExitFenced.
// The returned value is the process exit code.
func RunWorkerAttempt(dir string) int {
	attempt, _ := strconv.Atoi(os.Getenv(EnvAttempt))
	if attempt <= 0 {
		attempt = 1
	}
	grace := 10 * time.Second
	if g, err := time.ParseDuration(os.Getenv(EnvGrace)); err == nil && g > 0 {
		grace = g
	}
	token, _ := strconv.ParseInt(os.Getenv(EnvToken), 10, 64)
	fence := staticFence(dir, os.Getenv(EnvNode), token)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			cancel()
		case <-ctx.Done():
		}
	}()
	return runFlowAttempt(ctx, attemptEnv{
		dir:     dir,
		attempt: attempt,
		grace:   grace,
		fence:   fence,
		publish: func(e Event) {
			if fence != nil && fence() != nil {
				return // stale owner: the journal is not ours to append to
			}
			appendEvent(dir, e)
		},
		cacheDir: os.Getenv(EnvCacheDir),
	})
}
