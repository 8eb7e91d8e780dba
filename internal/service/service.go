// Package service is the multi-tenant CR&P job daemon behind cmd/crpd: a
// long-running composition of the repo's robustness primitives into a
// serving system. Jobs — LEF/DEF (or synthetic) designs plus CR&P
// parameters — are admitted into an explicitly bounded queue, executed by
// a bounded worker pool under per-job flow.Budgets with per-job crash-safe
// checkpoint directories, and observable over an HTTP/JSON API that
// streams per-iteration progress and degradation events.
//
// The contract every fault-tolerance feature hangs off: a job's outputs
// are a pure function of its spec. Preemption, worker crashes (in-process
// panics or SIGKILLed child processes), daemon restarts and migration
// between worker slots all funnel through checkpoint/resume, which is
// bit-identical to an uninterrupted run — so the service-level chaos suite
// can assert byte equality, not just liveness.
//
// Overload is explicit, never degenerate: submissions beyond the queue
// capacity or a tenant's cap are rejected with structured 429-class
// errors and leave no state behind; running jobs keep the budgets they
// were admitted with; a draining daemon checkpoints every in-flight job
// (preempting at snapshot boundaries) before its workers exit.
package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"github.com/crp-eda/crp/internal/flow"
)

// Config tunes the daemon. The zero value is not runnable; use
// (Config).withDefaults via New.
type Config struct {
	// DataDir holds one subdirectory per job: spec, state, checkpoint
	// directory, event journal, outputs. It is the recovery root a
	// restarted daemon rebuilds its queue from.
	DataDir string
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueCap bounds the waiting queue; submissions beyond it are
	// rejected with a structured queue_full error (default 16).
	QueueCap int
	// TenantMaxActive caps one tenant's queued+running jobs at admission
	// (default QueueCap+Workers: effectively no per-tenant admission cap).
	TenantMaxActive int
	// TenantMaxRunning caps one tenant's concurrently running jobs at
	// scheduling time (default Workers: no cap below the pool size).
	TenantMaxRunning int
	// RetryCap is the supervised attempt cap per job activation
	// (default 3). Preemptions do not consume attempts.
	RetryCap int
	// RetryBackoff is the base backoff between failed attempts
	// (default 250ms; doubled per retry, capped at 8x).
	RetryBackoff time.Duration
	// DrainGrace bounds how long a preemption request waits for the next
	// checkpoint boundary before hard-cancelling the attempt (default 10s).
	DrainGrace time.Duration
	// Exec, when non-empty, runs every attempt as an isolated child
	// process: the argv is executed with CRPD_RUN_JOB=<jobdir> in its
	// environment (cmd/crpd passes its own binary). Empty runs attempts
	// in-process.
	Exec []string
	// Instrument, when non-nil, may rewrite each in-process attempt's
	// flow config and checkpointing before it runs — the chaos-test seam
	// for injecting faults into a specific job's specific attempt. Not
	// applied in Exec mode (child processes are instrumented by killing
	// them, which needs no seam).
	Instrument func(jobID string, attempt int, cfg *flow.Config, ck *flow.Checkpointing)

	// NodeID identifies this daemon in the shared store (default
	// "node-<pid>"). Daemons sharing a DataDir MUST use distinct ids:
	// the id is the lease owner, the fencing identity and the liveness
	// record name.
	NodeID string
	// LeaseTTL is how long a job claim survives without heartbeat renewal
	// before any node may steal it (default 10s). Failover latency and
	// zombie-tolerance both scale with it.
	LeaseTTL time.Duration
	// HeartbeatEvery is the lease-renewal and liveness cadence (default
	// LeaseTTL/4).
	HeartbeatEvery time.Duration
	// RescanEvery is how often the shared store is scanned for peers'
	// jobs and expired leases to adopt (default LeaseTTL).
	RescanEvery time.Duration
	// LeaseHooks inject deterministic lease-layer faults — renewal drops
	// (partitions), pre-write stalls — for the failover chaos suite.
	LeaseHooks LeaseHooks
	// RetryBudget caps one activation's total retry wall-clock (attempts
	// plus backoffs); exhaustion is the terminal retries_exhausted state.
	// 0 means uncapped.
	RetryBudget time.Duration
	// Shed enables rung two of the load-shed ladder — degraded admission
	// near queue saturation. Nil disables that rung; cache serving and
	// the structured 429 always apply.
	Shed *ShedPolicy
	// DisableCache turns off exact-result-cache serving at admission.
	// Population still happens on success, so enabling later benefits
	// from earlier runs.
	DisableCache bool
	// CacheMaxEntries and CacheMaxBytes bound the exact result cache; the
	// least-recently-served entries are evicted when either bound is
	// exceeded (at startup and after each completed job), and every
	// eviction is counted in Stats.CacheEvictions. 0 means unbounded.
	CacheMaxEntries int
	CacheMaxBytes   int64
}

// ShedPolicy tunes degraded admission: once the queue depth reaches
// Threshold×QueueCap (but before it is full), each submission is admitted
// with a clamped spec — fewer CR&P iterations, a tighter flow budget —
// and every clamp is recorded in the spec's AdmissionDegradations, which
// the flow folds into Result.Degradations. The caller always learns
// exactly what admission took away.
type ShedPolicy struct {
	// Threshold is the engagement fraction of QueueCap (default 0.75).
	Threshold float64
	// MaxK caps a shed-admitted job's CR&P iteration count (default 2;
	// negative leaves K alone).
	MaxK int
	// FlowBudgetMS tightens a shed-admitted job's whole-flow budget to at
	// most this many milliseconds (0 leaves budgets alone).
	FlowBudgetMS int64
}

// engageDepth is the queue depth at which the policy engages.
func (p *ShedPolicy) engageDepth(queueCap int) int {
	t := p.Threshold
	if t <= 0 || t > 1 {
		t = 0.75
	}
	at := int(math.Ceil(t * float64(queueCap)))
	if at < 1 {
		at = 1
	}
	return at
}

// clamp degrades sp in place, appending one AdmissionDegradations note
// per clamp and returning the notes.
func (p *ShedPolicy) clamp(sp *Spec) []string {
	var notes []string
	maxK := p.MaxK
	if maxK == 0 {
		maxK = 2
	}
	k := sp.K
	if k == 0 {
		k = flow.DefaultConfig().CRP.Iterations
	}
	if maxK > 0 && k > maxK {
		sp.K = maxK
		notes = append(notes, fmt.Sprintf("k clamped %d -> %d under load shed", k, maxK))
	}
	if p.FlowBudgetMS > 0 && (sp.FlowBudgetMS == 0 || sp.FlowBudgetMS > p.FlowBudgetMS) {
		notes = append(notes, fmt.Sprintf("flow budget tightened to %dms under load shed", p.FlowBudgetMS))
		sp.FlowBudgetMS = p.FlowBudgetMS
	}
	sp.AdmissionDegradations = append(sp.AdmissionDegradations, notes...)
	return notes
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.TenantMaxActive <= 0 {
		c.TenantMaxActive = c.QueueCap + c.Workers
	}
	if c.TenantMaxRunning <= 0 {
		c.TenantMaxRunning = c.Workers
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.NodeID == "" {
		c.NodeID = fmt.Sprintf("node-%d", os.Getpid())
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 4
	}
	if c.RescanEvery <= 0 {
		c.RescanEvery = c.LeaseTTL
	}
	return c
}

// Service is one running daemon instance — one node of the (possibly
// multi-node) job store rooted at Config.DataDir.
type Service struct {
	cfg     Config
	store   *store
	pool    *pool
	schedWG sync.WaitGroup
}

// New builds a service on cfg.DataDir, recovers any jobs a previous
// daemon left behind through a first scan of the store (queued and
// running jobs re-enter the queue and resume from their checkpoints; jobs
// another live node holds leases on are tracked as remote), and starts
// the worker pool and the heartbeat/scan scheduler.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	st := newStore(cfg)
	if err := st.ensureDirs(); err != nil {
		return nil, fmt.Errorf("service: preparing %s: %w", cfg.DataDir, err)
	}
	if err := st.scan(); err != nil {
		return nil, fmt.Errorf("service: recovering %s: %w", cfg.DataDir, err)
	}
	st.enforceCacheBounds()
	s := &Service{cfg: cfg, store: st, pool: newPool(cfg, st)}
	s.pool.start()
	s.schedWG.Add(1)
	go s.schedule()
	return s, nil
}

// schedule is the node-liveness loop: heartbeats renew this node's
// record and its running jobs' leases; periodic scans reconcile the
// shared store, adopting jobs whose owner died. Exits on drain or halt.
func (s *Service) schedule() {
	defer s.schedWG.Done()
	s.store.heartbeat()
	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	scan := time.NewTicker(s.cfg.RescanEvery)
	defer scan.Stop()
	for {
		select {
		case <-s.store.stopCh:
			return
		case <-hb.C:
			s.store.heartbeat()
		case <-scan.C:
			_ = s.store.scan() // an unreadable store is retried next tick
		}
	}
}

// Submit admits a job (or rejects it with a structured *APIError).
func (s *Service) Submit(spec Spec) (Status, error) {
	j, err := s.store.submit(spec)
	if err != nil {
		return Status{}, err
	}
	return s.store.status(j), nil
}

// Status returns a job's current status.
func (s *Service) Status(id string) (Status, error) {
	j, err := s.store.get(id)
	if err != nil {
		return Status{}, err
	}
	return s.store.status(j), nil
}

// List returns every known job, newest first.
func (s *Service) List() []Status { return s.store.list() }

// Stats snapshots the service counters.
func (s *Service) Stats() Stats { return s.store.stats() }

// Preempt requests a checkpoint-backed preemption of a running job: it
// stops at its next snapshot boundary, requeues, and resumes on any free
// worker slot, losing at most one iteration.
func (s *Service) Preempt(id string) error {
	j, err := s.store.get(id)
	if err != nil {
		return err
	}
	return s.store.preemptJob(j, "preempt")
}

// Cancel terminates a job. A running job stops at its next checkpoint
// boundary (bounded by DrainGrace); a queued job is cancelled in place.
func (s *Service) Cancel(id string) error {
	j, err := s.store.get(id)
	if err != nil {
		return err
	}
	return s.store.preemptJob(j, "cancel")
}

// Drain gracefully shuts the service down: admission closes (submissions
// get a structured draining error), every running job is preempted at its
// next checkpoint boundary and persisted back into the queue, and the
// call returns when all workers have exited or ctx expires. After a clean
// drain, a new Service on the same DataDir resumes every unfinished job
// from its checkpoints.
func (s *Service) Drain(ctx context.Context) error {
	s.store.beginDrain()
	s.schedWG.Wait()
	return s.pool.wait(ctx)
}

// Halt simulates this node dying without warning — the in-process
// equivalent of SIGKILL, for the failover chaos suite. Heartbeats,
// scheduling and every durable write stop immediately; leases are NOT
// released and expire on their own; running attempts are hard-cancelled.
// Another node sharing the store adopts the halted node's jobs once their
// leases lapse and resumes them from their latest checkpoints. A halted
// service supports only read-only calls and Drain (to reap its worker
// goroutines); Halt is never undone.
func (s *Service) Halt() {
	s.store.halt()
	s.schedWG.Wait()
}

// Nodes lists every daemon that has heartbeat into this store
// (GET /v1/nodes).
func (s *Service) Nodes() []NodeStatus { return s.store.nodes() }

// Scan forces one reconciliation pass of the shared store — what the
// scheduler does every RescanEvery. Tests (and impatient operators) use
// it to adopt a dead peer's jobs without waiting out the scan interval.
// An unreadable store leaves the view as it was.
func (s *Service) Scan() { _ = s.store.scan() }
