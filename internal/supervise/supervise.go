// Package supervise is the retry loop behind the job service's worker pool:
// it runs a job attempt and, when the attempt dies — crash, OOM kill,
// injected fault — retries it with exponential backoff until it succeeds or
// a retry cap is reached. Paired with checkpoint journaling and
// flow.Resume, a supervised run loses at most one iteration of work per
// crash and still terminates with bit-identical outputs.
//
// Determinism discipline: backoff jitter comes from a seeded generator and
// sleeping goes through an injectable seam, so supervisor behaviour —
// including the exact backoff schedule — replays identically in tests.
//
// Supervision is context-aware: RunCtx stops retrying — and interrupts a
// mid-backoff sleep — as soon as its context is cancelled, so a draining
// daemon never blocks on a supervisor that is waiting out its backoff.
package supervise

import (
	"context"
	"math/rand"
	"time"
)

// Config tunes the retry loop. The zero value supervises with the defaults
// noted per field.
type Config struct {
	// MaxAttempts caps total executions (first run + retries). Default 5.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 10s.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter source. Jitter adds up to
	// half the base delay so restart stampedes decorrelate without making
	// the schedule irreproducible.
	JitterSeed int64
	// RetryBudget caps the total wall-clock of one supervised run —
	// attempts plus backoffs. A failure whose next backoff would land
	// past the budget stops the loop with Report.BudgetExhausted instead
	// of sleeping, so a deterministically-crashing job cannot occupy its
	// worker slot for MaxAttempts × MaxBackoff. Zero means uncapped
	// (the pre-existing behaviour).
	RetryBudget time.Duration
	// Sleep is the waiting seam; nil means a context-aware timer wait.
	// Tests inject a recorder to assert the schedule without waiting it
	// out. An injected Sleep cannot be interrupted mid-wait, but
	// cancellation is still honoured as soon as it returns.
	Sleep func(time.Duration)
	// OnAttempt, when non-nil, observes every attempt as it completes —
	// structured reporting for the job service's event journal.
	OnAttempt func(Attempt)
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	return c
}

// sleep waits d through the injectable seam. It returns false when the
// context was cancelled — either mid-wait (default timer path) or by the
// time an injected Sleep returned.
func (c Config) sleep(ctx context.Context, d time.Duration) bool {
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Attempt is the structured record of one job execution.
type Attempt struct {
	// N is the 1-based attempt number.
	N int `json:"attempt"`
	// ExitCode is the job's exit status; 0 means success, -1 means the job
	// failed before producing one (e.g. the binary could not start).
	ExitCode int `json:"exit_code"`
	// Err is the failure description, empty on success.
	Err string `json:"error,omitempty"`
	// Duration is the attempt's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// Backoff is the delay slept after this attempt before the next one;
	// zero on the final attempt.
	Backoff time.Duration `json:"backoff_ns"`
}

// Report is the outcome of a supervised run.
type Report struct {
	Succeeded bool      `json:"succeeded"`
	Attempts  []Attempt `json:"attempts"`
	// Cancelled reports that supervision stopped because the context was
	// cancelled — before an attempt, during a backoff sleep, or while the
	// final attempt was executing — rather than by success or cap
	// exhaustion.
	Cancelled bool `json:"cancelled,omitempty"`
	// BudgetExhausted reports that Config.RetryBudget ran out: the last
	// attempt failed and retrying was forbidden because the run's total
	// wall-clock (plus the pending backoff) would exceed the budget. The
	// job service maps this to its terminal "retries_exhausted" state.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// Job runs one attempt and reports its exit code. A nil error with code 0
// is success; any other combination schedules a retry.
type Job func(attempt int) (exitCode int, err error)

// Run supervises job under cfg with no external cancellation.
func Run(cfg Config, job Job) Report {
	return RunCtx(context.Background(), cfg, job)
}

// RunCtx supervises job under cfg, retrying failures with exponential
// backoff plus deterministic jitter until success, the attempt cap, or
// context cancellation. Cancellation interrupts a mid-backoff sleep and
// suppresses further retries; the job itself is expected to observe the
// same context if it wants to stop mid-attempt.
func RunCtx(ctx context.Context, cfg Config, job Job) Report {
	cfg = cfg.withDefaults()
	jitter := rand.New(rand.NewSource(cfg.JitterSeed))
	start := time.Now()
	var rep Report
	for n := 1; n <= cfg.MaxAttempts; n++ {
		if ctx.Err() != nil {
			rep.Cancelled = true
			return rep
		}
		t0 := time.Now()
		code, err := job(n)
		at := Attempt{N: n, ExitCode: code, Duration: time.Since(t0)}
		if err != nil {
			at.Err = err.Error()
		}
		if err == nil && code == 0 {
			rep.Succeeded = true
			rep.Attempts = append(rep.Attempts, at)
			if cfg.OnAttempt != nil {
				cfg.OnAttempt(at)
			}
			return rep
		}
		// A failure after cancellation is not retried: the attempt was
		// (or contains) the cancellation itself — a preempted or draining
		// job — and restarting it would fight the shutdown.
		if ctx.Err() != nil {
			rep.Attempts = append(rep.Attempts, at)
			if cfg.OnAttempt != nil {
				cfg.OnAttempt(at)
			}
			rep.Cancelled = true
			return rep
		}
		if n < cfg.MaxAttempts {
			at.Backoff = backoff(cfg, jitter, n)
		}
		// Retry-budget check before committing to the backoff: if the run's
		// elapsed wall-clock plus the sleep we are about to take already
		// exceeds the budget, stop here rather than burn a slot on a retry
		// that was only ever going to be cut short.
		if cfg.RetryBudget > 0 && n < cfg.MaxAttempts &&
			time.Since(start)+at.Backoff >= cfg.RetryBudget {
			at.Backoff = 0
			rep.Attempts = append(rep.Attempts, at)
			if cfg.OnAttempt != nil {
				cfg.OnAttempt(at)
			}
			rep.BudgetExhausted = true
			return rep
		}
		rep.Attempts = append(rep.Attempts, at)
		if cfg.OnAttempt != nil {
			cfg.OnAttempt(at)
		}
		if at.Backoff > 0 && !cfg.sleep(ctx, at.Backoff) {
			rep.Cancelled = true
			return rep
		}
	}
	return rep
}

// backoff computes the post-attempt-n delay: BaseBackoff doubled per retry,
// capped at MaxBackoff, plus jitter in [0, delay/2).
func backoff(cfg Config, jitter *rand.Rand, n int) time.Duration {
	d := cfg.BaseBackoff
	for i := 1; i < n && d < cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	return d + time.Duration(jitter.Int63n(int64(d)/2+1))
}
