package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/supervise"
)

// pool is the bounded worker set: Config.Workers goroutines, each claiming
// one queued job at a time and driving it to a terminal state (or back
// into the queue on preemption). Every job attempt runs under supervise —
// a crashed attempt restarts from the job's last checkpoint with backoff,
// so the retry story inside the daemon is the same self-healing loop
// cmd/crpd has always offered around it.
type pool struct {
	cfg   Config
	store *store
	wg    sync.WaitGroup
}

func newPool(cfg Config, st *store) *pool {
	return &pool{cfg: cfg, store: st}
}

func (p *pool) start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// wait blocks until every worker has exited (drain must have begun) or
// ctx expires.
func (p *pool) wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	for {
		j := p.store.next()
		if j == nil {
			return // draining
		}
		p.runJob(j)
	}
}

// runJob drives one claimed job: supervised attempts until success, the
// retry cap, or a preemption/cancellation request.
func (p *pool) runJob(j *Job) {
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	j.mu.Lock()
	j.preempt = acancel
	j.mu.Unlock()
	j.hub.notify()

	var lastErr string
	rep := supervise.RunCtx(actx, supervise.Config{
		MaxAttempts: p.cfg.RetryCap,
		BaseBackoff: p.cfg.RetryBackoff,
		MaxBackoff:  8 * p.cfg.RetryBackoff,
		RetryBudget: p.cfg.RetryBudget,
		JitterSeed:  int64(j.Seq),
		OnAttempt: func(at supervise.Attempt) {
			if at.Err != "" {
				lastErr = fmt.Sprintf("attempt %d exited %d: %s", at.N, at.ExitCode, at.Err)
			}
		},
	}, func(n int) (int, error) {
		j.mu.Lock()
		j.attempts++
		attempt := j.attempts
		j.mu.Unlock()
		if err := p.store.persistClaim(j); errors.Is(err, ErrFenced) {
			// The lease moved before the attempt began: the job is
			// another node's now, and this attempt must not run.
			p.store.markLeaseLost(j)
			return ExitFenced, err
		} else if err != nil {
			p.publish(j, Event{Kind: "degradation", Attempt: attempt,
				Stage: "service", Fault: "state-persist-failed", Detail: err.Error()})
		}
		p.publish(j, Event{Kind: "attempt", Attempt: attempt})
		code := p.runAttempt(actx, j, attempt)
		if code == ExitFenced {
			// The attempt's durable writes were refused by the lease
			// fence: this node is a zombie for the job. Stop retrying —
			// whoever stole the lease owns the work now.
			if len(p.cfg.Exec) > 0 {
				// In-process fences count themselves; a child process
				// cannot reach the parent's counters, so its fenced exit
				// is counted here.
				p.store.fencedWrites.Add(1)
			}
			p.store.markLeaseLost(j)
		}
		if code != 0 {
			return code, fmt.Errorf("worker attempt %d failed (code %d)", attempt, code)
		}
		return 0, nil
	})

	if p.store.isHalted() {
		return // a dead node performs no transitions
	}
	j.mu.Lock()
	lost := j.leaseLost
	j.mu.Unlock()
	if lost {
		p.store.detach(j)
		return
	}
	switch {
	case rep.Succeeded:
		p.store.release(j, StateDone, "", Event{Kind: "done"})
	case rep.BudgetExhausted:
		// The retry wall-clock budget ran out mid-failure: terminal, and
		// distinct from the attempt-count cap so callers can tell the two
		// exhaustions apart.
		p.store.release(j, StateRetriesExhausted, lastErr, Event{Kind: "retries_exhausted", Detail: lastErr})
	case actx.Err() != nil:
		j.mu.Lock()
		reason := j.preemptReason
		j.mu.Unlock()
		if reason == "cancel" {
			p.store.release(j, StateCancelled, "", Event{Kind: "cancelled"})
		} else {
			// Preemption or drain: back into the queue; the checkpoint
			// directory carries the job to its next worker slot.
			p.store.release(j, StateQueued, "", Event{Kind: "requeued", Detail: reason})
		}
	default:
		p.store.release(j, StateFailed, lastErr, Event{Kind: "failed", Detail: lastErr})
	}
}

// runAttempt executes one attempt in the configured isolation mode.
func (p *pool) runAttempt(ctx context.Context, j *Job, attempt int) int {
	if len(p.cfg.Exec) > 0 {
		return p.runChildAttempt(ctx, j, attempt)
	}
	return p.runInProcAttempt(ctx, j, attempt)
}

// runInProcAttempt runs the attempt on this goroutine. A panic that
// escapes the flow's own quarantines (or is injected by the chaos seam)
// fails only this attempt — the worker and the daemon survive, and the
// next attempt resumes from the checkpoint.
func (p *pool) runInProcAttempt(ctx context.Context, j *Job, attempt int) (code int) {
	defer func() {
		if r := recover(); r != nil {
			p.publish(j, Event{Kind: "degradation", Attempt: attempt,
				Stage: "service", Fault: "worker-panic", Detail: fmt.Sprint(r)})
			code = exitFailure
		}
	}()
	fence := p.store.fenceFor(j)
	env := attemptEnv{
		dir:     j.Dir,
		attempt: attempt,
		grace:   p.cfg.DrainGrace,
		fence:   fence,
		publish: func(e Event) {
			// The journal is a durable write like any other: a stale
			// owner's events are fenced (and counted), not interleaved
			// into a journal another node now owns.
			if err := fence(); err != nil {
				return
			}
			p.publish(j, e)
		},
		onFlow: func(cancel func()) {
			j.mu.Lock()
			j.hardCancel = cancel
			j.mu.Unlock()
		},
		cacheDir: p.store.cacheRoot,
	}
	if p.cfg.Instrument != nil {
		env.instrument = func(cfg *flow.Config, ck *flow.Checkpointing) {
			p.cfg.Instrument(j.ID, attempt, cfg, ck)
		}
	}
	return runFlowAttempt(ctx, env)
}

// runChildAttempt execs the attempt as an isolated worker process
// (Config.Exec + CRPD_RUN_JOB). Preemption sends SIGTERM — the child stops
// at its next checkpoint boundary and exits ExitPreempted — escalating to
// SIGKILL after the grace. A child killed outright (chaos, OOM) surfaces
// as a failed attempt and resumes from its checkpoint on retry.
func (p *pool) runChildAttempt(ctx context.Context, j *Job, attempt int) int {
	j.mu.Lock()
	token := j.leaseToken
	j.mu.Unlock()
	cmd := exec.Command(p.cfg.Exec[0], p.cfg.Exec[1:]...)
	cmd.Env = append(os.Environ(),
		EnvRunJob+"="+j.Dir,
		fmt.Sprintf("%s=%d", EnvAttempt, attempt),
		EnvGrace+"="+p.cfg.DrainGrace.String(),
		EnvNode+"="+p.cfg.NodeID,
		fmt.Sprintf("%s=%d", EnvToken, token),
		EnvCacheDir+"="+p.store.cacheRoot,
	)
	logf, err := os.OpenFile(j.Dir+"/worker.log", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err == nil {
		defer logf.Close()
		cmd.Stdout, cmd.Stderr = logf, logf
	}
	if err := cmd.Start(); err != nil {
		p.publish(j, Event{Kind: "degradation", Attempt: attempt,
			Stage: "service", Fault: "worker-spawn-failed", Detail: err.Error()})
		return exitFailure
	}
	j.setPID(cmd.Process.Pid)
	j.mu.Lock()
	j.hardCancel = func() { cmd.Process.Kill() }
	j.mu.Unlock()
	j.hub.notify()
	defer j.setPID(0)

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	killer := make(chan struct{})
	defer close(killer)
	go func() {
		select {
		case <-ctx.Done():
			cmd.Process.Signal(syscall.SIGTERM)
			t := time.NewTimer(p.cfg.DrainGrace + time.Second)
			defer t.Stop()
			select {
			case <-t.C:
				cmd.Process.Kill()
			case <-killer:
			}
		case <-killer:
		}
	}()
	err = <-waitErr
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		if code := ee.ExitCode(); code > 0 {
			return code
		}
	}
	// Killed by signal (SIGKILL chaos / OOM): during preemption treat it
	// as the preempted exit, otherwise as a retryable crash.
	if ctx.Err() != nil {
		return ExitPreempted
	}
	p.publish(j, Event{Kind: "degradation", Attempt: attempt,
		Stage: "service", Fault: "worker-killed", Detail: err.Error()})
	return exitFailure
}

// publish journals an event for j and wakes its streamers. No-op on a
// halted node: a dead process appends nothing.
func (p *pool) publish(j *Job, e Event) {
	if p.store.isHalted() {
		return
	}
	j.journal(e)
	j.hub.notify()
}
