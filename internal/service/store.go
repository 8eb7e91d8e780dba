package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/crp-eda/crp/internal/atomicio"
)

// APIError is a structured rejection: the admission layer returns it and
// the HTTP layer serializes it verbatim, so orchestrators can branch on
// Code instead of parsing prose. Status is the HTTP mapping (429 for
// overload, 503 for drain, 4xx for bad requests).
type APIError struct {
	Status     int    `json:"-"`
	Code       string `json:"code"`
	Message    string `json:"message"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	QueueCap   int    `json:"queue_cap,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Limit      int    `json:"limit,omitempty"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func errQueueFull(depth, cap int) *APIError {
	return &APIError{
		Status: http.StatusTooManyRequests, Code: "queue_full",
		Message:    "job queue is at capacity; retry with backoff",
		QueueDepth: depth, QueueCap: cap,
	}
}

func errTenantLimit(tenant string, limit int) *APIError {
	return &APIError{
		Status: http.StatusTooManyRequests, Code: "tenant_limit",
		Message: "tenant is at its active-job cap; retry when jobs finish",
		Tenant:  tenant, Limit: limit,
	}
}

func errDraining() *APIError {
	return &APIError{
		Status: http.StatusServiceUnavailable, Code: "draining",
		Message: "daemon is draining; submissions are closed",
	}
}

func errNotFound(id string) *APIError {
	return &APIError{
		Status: http.StatusNotFound, Code: "not_found",
		Message: "no such job: " + id,
	}
}

func errBadSpec(msg string) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: "bad_spec", Message: msg}
}

// errInvalidSpec is the value-sanity sibling of errBadSpec: the spec is
// structurally a submission but carries NaN/negative/absurd values
// (Spec.Validate's errInvalidValue). Distinct code so clients can tell
// "you forgot a field" from "your numbers are garbage".
func errInvalidSpec(msg string) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: "invalid_spec", Message: msg}
}

func errConflict(msg string) *APIError {
	return &APIError{Status: http.StatusConflict, Code: "conflict", Message: msg}
}

// errECOParent rejects an ECO submission whose parent is itself an ECO job.
func errECOParent(id string) *APIError {
	return errBadSpec("parent job " + id + " is an ECO job; an ECO job's parent must be a fresh job")
}

// store owns the job table and the admission-controlled queue. The queue
// is explicitly bounded: a submission beyond capacity is rejected with a
// structured error and leaves no trace, so overload cannot grow memory
// without bound. Fairness is two-layered — an admission cap on each
// tenant's active (queued+running) jobs, and a scheduling cap on each
// tenant's concurrently running jobs.
type store struct {
	cfg Config

	// lm performs this node's lease operations against the shared
	// DataDir; every claim, heartbeat and steal goes through it.
	lm        *leaseManager
	cacheRoot string
	nodesDir  string

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	queue    []*Job // admitted, waiting; kept in Seq order
	running  map[string]*Job
	seq      int
	draining bool
	drainCh  chan struct{} // closed when draining starts; wakes streamers
	// halted simulates this node dying (SIGKILL): every durable write and
	// state transition becomes a no-op, exactly as if the process were
	// gone. Set only by Halt (chaos tests); never cleared.
	halted bool
	// stopCh stops the scheduler loop (heartbeats + store scans); closed
	// on drain and on halt.
	stopCh   chan struct{}
	stopOnce sync.Once

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	fencedWrites   atomic.Int64
	steals         atomic.Int64
	shedDegraded   atomic.Int64
}

// enforceCacheBounds applies the configured LRU entry/byte bounds to the
// exact result cache, counting every removed entry. No-op when both
// bounds are zero.
func (st *store) enforceCacheBounds() {
	if n := evictCache(st.cacheRoot, st.cfg.CacheMaxEntries, st.cfg.CacheMaxBytes); n > 0 {
		st.cacheEvictions.Add(int64(n))
	}
}

func newStore(cfg Config) *store {
	st := &store{
		cfg:       cfg,
		lm:        newLeaseManager(cfg.NodeID, cfg.LeaseTTL, cfg.LeaseHooks),
		cacheRoot: filepath.Join(cfg.DataDir, cacheDirName),
		nodesDir:  filepath.Join(cfg.DataDir, nodesDirName),
		jobs:      make(map[string]*Job),
		running:   make(map[string]*Job),
		drainCh:   make(chan struct{}),
		stopCh:    make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// ensureDirs creates the store's shared-directory layout.
func (st *store) ensureDirs() error {
	for _, d := range []string{st.cfg.DataDir, st.cacheRoot, st.nodesDir} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return err
		}
	}
	return nil
}

// stop ends the scheduler loop. Idempotent.
func (st *store) stop() { st.stopOnce.Do(func() { close(st.stopCh) }) }

func (st *store) isHalted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.halted
}

// submit admits a job or rejects it with a structured *APIError, walking
// the load-shed ladder in order:
//
//  1. exact-cache serve — a hit completes immediately, consuming no queue
//     slot, no worker and no lease, so it works even at full queue;
//  2. degraded admission — near saturation (Config.Shed) the spec is
//     clamped, with every clamp recorded in AdmissionDegradations;
//  3. the structured queue_full 429.
//
// On success the job directory exists with spec.json, state.json and a
// "submitted" journal event — enough for a restarted daemon to recover it.
func (st *store) submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		if errors.Is(err, errInvalidValue) {
			return nil, errInvalidSpec(err.Error())
		}
		return nil, errBadSpec(err.Error())
	}
	if spec.isECO() {
		if err := st.resolveParent(spec); err != nil {
			return nil, err
		}
	}
	if j, served, err := st.tryServeCached(spec); served {
		return j, err
	}
	st.mu.Lock()
	if st.draining || st.halted {
		st.mu.Unlock()
		return nil, errDraining()
	}
	if shed := st.cfg.Shed; shed != nil &&
		len(st.queue) >= shed.engageDepth(st.cfg.QueueCap) &&
		len(st.queue) < st.cfg.QueueCap {
		if notes := shed.clamp(&spec); len(notes) > 0 {
			st.shedDegraded.Add(1)
		}
	}
	if len(st.queue) >= st.cfg.QueueCap {
		depth := len(st.queue)
		st.mu.Unlock()
		return nil, errQueueFull(depth, st.cfg.QueueCap)
	}
	tenant := spec.tenant()
	if st.activeLocked(tenant) >= st.cfg.TenantMaxActive {
		st.mu.Unlock()
		return nil, errTenantLimit(tenant, st.cfg.TenantMaxActive)
	}
	// Register (so concurrent admission checks count the job) but do NOT
	// enqueue yet: a worker must never claim a job whose spec.json is not
	// on disk.
	j, err := st.allocLocked(spec)
	st.mu.Unlock()
	if err != nil {
		return nil, &APIError{Status: http.StatusInternalServerError,
			Code: "persist_failed", Message: err.Error()}
	}

	if err := st.persistSubmit(j); err != nil {
		// Roll the admission back: a job we cannot persist cannot be
		// recovered after a crash, so refusing it is the honest answer.
		st.mu.Lock()
		delete(st.jobs, j.ID)
		st.mu.Unlock()
		return nil, &APIError{Status: http.StatusInternalServerError,
			Code: "persist_failed", Message: err.Error()}
	}
	st.mu.Lock()
	if j.currentState() == StateQueued { // not cancelled while persisting
		st.queue = append(st.queue, j)
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	return j, nil
}

// allocLocked reserves the next free job id by creating its directory with
// an exclusive os.Mkdir — the cross-node arbitration point on the shared
// store: two nodes racing the same sequence number collide on the mkdir
// and the loser advances to the next. The caller holds st.mu.
func (st *store) allocLocked(spec Spec) (*Job, error) {
	for {
		st.seq++
		id := fmt.Sprintf("j%06d", st.seq)
		dir := filepath.Join(st.cfg.DataDir, id)
		err := os.Mkdir(dir, 0o777)
		if os.IsExist(err) {
			continue // taken (by us historically, or by a peer just now)
		}
		if err != nil {
			st.seq--
			return nil, err
		}
		j := &Job{ID: id, Seq: st.seq, Spec: spec, Dir: dir, state: StateQueued}
		st.jobs[id] = j
		return j, nil
	}
}

// resolveParent gates an ECO submission on its parent: the referenced job
// must exist (here, or on disk under a peer node), must not itself be an
// ECO job (an ECO job's design is its parent's, so its attempts could never
// rebuild one for a child), and must be done — an ECO against a job still
// running would race its committed output. Unknown and ECO parents are
// structural bad_spec rejections; a live-but-unfinished parent is a
// conflict the client can retry once the parent completes. A parent that
// a peer owns is judged by its on-disk record, read afresh: the in-memory
// view of a peer's job is only as new as its last status query or scan.
func (st *store) resolveParent(sp Spec) error {
	id := sp.ParentJob
	j, err := st.get(id)
	if err != nil {
		// A peer node's job this node has not scanned yet.
		var ok bool
		if j, ok = loadJobDir(id, filepath.Join(st.cfg.DataDir, id)); !ok {
			return errBadSpec("unknown parent job: " + id)
		}
	}
	st.refreshRemote(j)
	if j.Spec.isECO() {
		return errECOParent(id)
	}
	if s := j.currentState(); s != StateDone {
		return errConflict(fmt.Sprintf("parent job %s is %s, not done", id, s))
	}
	return nil
}

// tryServeCached is rung one of the shed ladder: when the exact result
// cache holds the spec's canonical hash, a new job directory is created
// with the cached artifacts copied in and the job completes on the spot —
// zero attempts, zero queue footprint. served=false falls through to
// normal admission.
func (st *store) tryServeCached(spec Spec) (j *Job, served bool, err error) {
	if st.cfg.DisableCache {
		return nil, false, nil
	}
	hash, err := jobHash(spec, st.cfg.DataDir)
	if err != nil {
		return nil, false, nil
	}
	entry := cacheEntryDir(st.cacheRoot, hash, !spec.isECO())
	if entry == "" {
		st.cacheMisses.Add(1)
		return nil, false, nil
	}
	touchCacheEntry(entry)
	st.mu.Lock()
	if st.draining || st.halted {
		st.mu.Unlock()
		return nil, true, errDraining()
	}
	j, aerr := st.allocLocked(spec)
	st.mu.Unlock()
	if aerr != nil {
		return nil, true, &APIError{Status: http.StatusInternalServerError,
			Code: "persist_failed", Message: aerr.Error()}
	}
	j.mu.Lock()
	j.state = StateDone
	j.mu.Unlock()
	perr := st.writeSpec(j)
	if perr == nil {
		perr = copyCachedArtifacts(entry, j.Dir, !spec.isECO())
	}
	if perr == nil {
		perr = st.persistState(j)
	}
	if perr != nil {
		st.mu.Lock()
		delete(st.jobs, j.ID)
		st.mu.Unlock()
		return nil, true, &APIError{Status: http.StatusInternalServerError,
			Code: "persist_failed", Message: perr.Error()}
	}
	appendEvent(j.Dir, Event{Kind: "submitted", K: j.Spec.K})
	appendEvent(j.Dir, Event{Kind: "cache-hit", Detail: hash})
	appendEvent(j.Dir, Event{Kind: "done"})
	st.cacheHits.Add(1)
	j.hub.notify()
	return j, true, nil
}

func (st *store) writeSpec(j *Job) error {
	spec, err := json.Marshal(j.Spec)
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(filepath.Join(j.Dir, "spec.json"), spec)
}

func (st *store) persistSubmit(j *Job) error {
	if err := os.MkdirAll(j.Dir, 0o777); err != nil {
		return err
	}
	if err := st.writeSpec(j); err != nil {
		return err
	}
	if err := st.persistState(j); err != nil {
		return err
	}
	return appendEvent(j.Dir, Event{Kind: "submitted", K: j.Spec.K})
}

// persistState atomically rewrites the job's control-plane record.
func (st *store) persistState(j *Job) error { return st.writeRecord(j, nil) }

// persistClaim writes a claimed job's record, running with its attempts
// counted, before each attempt starts, so that a peer reads the job as
// running, not queued. The claim's fence guards the write, and the caller
// holds no store lock: a node that lost the lease writes nothing, and the
// ErrFenced it gets back says so.
func (st *store) persistClaim(j *Job) error { return st.writeRecord(j, st.fenceFor(j)) }

func (st *store) writeRecord(j *Job, guard func() error) error {
	rec, err := json.Marshal(j.record())
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytesGuarded(filepath.Join(j.Dir, "state.json"), guard, rec)
}

// activeLocked counts a tenant's non-terminal jobs.
func (st *store) activeLocked(tenant string) int {
	n := 0
	for _, j := range st.jobs {
		if j.Spec.tenant() == tenant && !j.currentState().terminal() {
			n++
		}
	}
	return n
}

// runningLocked counts a tenant's currently running jobs.
func (st *store) runningLocked(tenant string) int {
	n := 0
	for _, j := range st.running {
		if j.Spec.tenant() == tenant {
			n++
		}
	}
	return n
}

func (st *store) dequeueLocked(j *Job) {
	for i, q := range st.queue {
		if q == j {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

// next blocks until a runnable job exists and claims it — including its
// lease on the shared store — or returns nil when the store is draining or
// halted. Claiming scans the queue in admission order but skips jobs whose
// tenant is at its running cap — a saturated tenant cannot starve the
// others' queued work. A job whose lease another node holds is dropped
// from the local queue and tracked as remote; the scan loop re-adopts it
// if that node dies.
func (st *store) next() *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.draining || st.halted {
			return nil
		}
		for i := 0; i < len(st.queue); {
			j := st.queue[i]
			if st.runningLocked(j.Spec.tenant()) >= st.cfg.TenantMaxRunning {
				i++
				continue
			}
			rec, ok, err := st.lm.acquire(j.Dir)
			if err != nil || !ok {
				// Another node owns this job (or the lease layer is
				// wedged); it is not ours to run.
				st.queue = append(st.queue[:i], st.queue[i+1:]...)
				j.mu.Lock()
				j.remote = true
				j.mu.Unlock()
				continue
			}
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			j.mu.Lock()
			j.state = StateRunning
			j.leaseToken = rec.Token
			j.remote = false
			j.leaseLost = false
			j.mu.Unlock()
			st.running[j.ID] = j
			return j
		}
		st.cond.Wait()
	}
}

// release is the one writer of a claimed job's transition out of running:
// to a terminal state, or back to queued on preemption and drain. ev is
// the transition's journal event; releaseLocked orders the effects.
func (st *store) release(j *Job, next State, errMsg string, ev Event) {
	if next == StateDone {
		// The finished attempt may have populated the cache; re-apply the
		// LRU bounds before the transition is visible, so a waiter that
		// sees done also sees the eviction it caused.
		st.enforceCacheBounds()
	}
	st.mu.Lock()
	st.releaseLocked(j, next, errMsg, ev)
}

// releaseLocked is release entered with st.mu held, which it unlocks:
// preemptJob cancels a queued job through it, so no worker can claim the
// job between that check and the flip. The effects run in this order:
//
//  1. the state flips in memory and this node's claim is dropped;
//  2. ev is journaled while j.mu is still held, so a reader sees the old
//     state, or the new one with its event already on disk — a client
//     that reads the status on the event reads the new state;
//  3. streamers wake;
//  4. a requeued job re-enters the queue in its original admission order
//     (preemption cannot jump the line), so its requeued event precedes
//     its next attempt;
//  5. state.json is persisted and only then the lease released, so no
//     other node claims the job while its record is mid-transition.
//
// On a halted node it does nothing: a dead process performs no
// transitions and its leases expire on their own.
func (st *store) releaseLocked(j *Job, next State, errMsg string, ev Event) {
	if st.halted {
		st.mu.Unlock()
		return
	}
	delete(st.running, j.ID)
	st.dequeueLocked(j)
	j.mu.Lock()
	token, _, _ := j.dropClaimLocked()
	j.state = next
	j.errMsg = errMsg
	if next == StateQueued {
		j.preemptions++
	}
	st.mu.Unlock()
	j.journal(ev)
	j.mu.Unlock()
	j.hub.notify()
	if next == StateQueued {
		st.mu.Lock()
		if j.currentState() == StateQueued { // not cancelled meanwhile
			st.queue = append(st.queue, j)
			sort.Slice(st.queue, func(a, b int) bool { return st.queue[a].Seq < st.queue[b].Seq })
		}
		st.mu.Unlock()
	}
	if err := st.persistState(j); err != nil {
		// The in-memory transition already happened; a persist failure
		// costs recovery fidelity after a crash, not current correctness.
		appendEvent(j.Dir, Event{Kind: "degradation", Stage: "service",
			Fault: "state-persist-failed", Detail: err.Error()})
	}
	if token != 0 {
		st.lm.release(j.Dir, token)
	}
	st.cond.Broadcast()
}

// detach abandons a claimed job whose lease this node lost: the thief owns
// the directory now, so the ex-owner must not write state, journal events
// or release the (superseded) lease — it only forgets its claim and tracks
// the job as remote until a scan folds the thief's outcome back in.
func (st *store) detach(j *Job) {
	st.mu.Lock()
	delete(st.running, j.ID)
	j.mu.Lock()
	j.dropClaimLocked()
	j.remote = true
	j.state = StateQueued // local view; the disk record is the thief's
	j.mu.Unlock()
	st.mu.Unlock()
	st.cond.Broadcast()
	j.hub.notify()
}

// markLeaseLost records that a running job's lease could not be renewed —
// it expired (heartbeat stall, partition) and is another node's to steal.
// The running attempt is cancelled; its in-flight writes are already
// rejected by the superseded fencing token, and the pool detaches the job
// instead of releasing it.
func (st *store) markLeaseLost(j *Job) {
	j.mu.Lock()
	if j.leaseLost {
		j.mu.Unlock()
		return
	}
	j.leaseLost = true
	j.preemptReason = "lease-lost"
	cancel := j.preempt
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// halt simulates this node dying without warning — the in-process
// equivalent of SIGKILL for the failover chaos suite. Nothing is released,
// persisted or journaled from here on: leases stay un-released until they
// expire and are stolen, running attempts are hard-cancelled (a dead
// process computes nothing), and every later durable write is refused by
// fenceFor. Never undone.
func (st *store) halt() {
	st.mu.Lock()
	if st.halted {
		st.mu.Unlock()
		return
	}
	st.halted = true
	running := make([]*Job, 0, len(st.running))
	for _, j := range st.running {
		running = append(running, j)
	}
	st.mu.Unlock()
	st.stop()
	st.cond.Broadcast()
	for _, j := range running {
		j.mu.Lock()
		_, cancel, hard := j.dropClaimLocked()
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if hard != nil {
			hard()
		}
	}
}

// fenceFor builds the durable-write guard of j's current claim: the write
// is refused when this node has been halted (a dead process writes
// nothing) or when the claim's fencing token has been superseded on disk.
// Every refusal is counted — the zombie's stale writes are a visible
// degradation, not silent loss.
func (st *store) fenceFor(j *Job) func() error {
	j.mu.Lock()
	token := j.leaseToken
	j.mu.Unlock()
	raw := st.lm.fence(j.Dir, token)
	return func() error {
		if st.isHalted() {
			return fmt.Errorf("%w: node halted", ErrFenced)
		}
		if err := raw(); err != nil {
			st.fencedWrites.Add(1)
			return err
		}
		return nil
	}
}

// get looks a job up.
func (st *store) get(id string) (*Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, errNotFound(id)
	}
	return j, nil
}

// preempt requests a checkpoint-backed stop of a job. reason "cancel"
// terminates the job; "preempt" and "drain" requeue it for resume on any
// free worker slot. A queued job is cancelled directly (nothing to stop);
// preempting a queued or terminal job is a no-op.
func (st *store) preemptJob(j *Job, reason string) error {
	st.mu.Lock()
	j.mu.Lock()
	state, cancel := j.state, j.preempt
	if state == StateRunning {
		j.preemptReason = reason
	}
	j.mu.Unlock()
	if state == StateQueued && reason == "cancel" {
		st.releaseLocked(j, StateCancelled, "", Event{Kind: "cancelled"})
		return nil
	}
	st.mu.Unlock()
	switch {
	case state == StateRunning && cancel != nil:
		cancel()
	case state.terminal() && reason == "cancel":
		return errConflict(fmt.Sprintf("job is already %s", state))
	}
	return nil
}

// beginDrain closes admission and scheduling, stops the heartbeat/scan
// loop, and asks every running job to preempt at its next checkpoint
// boundary. Idempotent.
func (st *store) beginDrain() {
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		return
	}
	st.draining = true
	st.stop()
	close(st.drainCh)
	running := make([]*Job, 0, len(st.running))
	for _, j := range st.running {
		running = append(running, j)
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	for _, j := range running {
		st.preemptJob(j, "drain")
	}
}

// stats snapshots the service-level counters.
func (st *store) stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		NodeID:         st.cfg.NodeID,
		QueueDepth:     len(st.queue),
		QueueCap:       st.cfg.QueueCap,
		Running:        len(st.running),
		Workers:        st.cfg.Workers,
		Draining:       st.draining,
		Halted:         st.halted,
		CacheHits:      st.cacheHits.Load(),
		CacheMisses:    st.cacheMisses.Load(),
		CacheEvictions: st.cacheEvictions.Load(),
		FencedWrites:   st.fencedWrites.Load(),
		Steals:         st.steals.Load(),
		ShedDegraded:   st.shedDegraded.Load(),
		Tenants:        map[string]TenantStats{},
		States:         map[State]int{},
	}
	for _, j := range st.jobs {
		state := j.currentState()
		s.States[state]++
		ts := s.Tenants[j.Spec.tenant()]
		if !state.terminal() {
			ts.Active++
		}
		if state == StateRunning {
			ts.Running++
		}
		s.Tenants[j.Spec.tenant()] = ts
	}
	return s
}

// list returns every known job's status, newest first.
func (st *store) list() []Status {
	st.mu.Lock()
	jobs := make([]*Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		jobs = append(jobs, j)
	}
	st.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq > jobs[b].Seq })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = st.status(j)
	}
	return out
}

// status assembles a job's full status: in-memory control state plus
// journal-derived progress and, when done, the persisted result summary.
// A job another node owns is refreshed from its on-disk record first, so
// any node in the shared store answers status queries for any job.
func (st *store) status(j *Job) Status {
	j.mu.Lock()
	remote := j.remote && !j.state.terminal()
	j.mu.Unlock()
	if remote {
		st.refreshRemote(j)
	}
	s := j.snapshot()
	if evs, err := decodeJournal(j.Dir); err == nil {
		s.Iter, s.K, s.TotalMoved = progress(evs)
	}
	if s.K == 0 {
		s.K = j.Spec.FlowConfig().CRP.Iterations
	}
	if s.State == StateDone {
		if res, err := loadResult(j.Dir); err == nil {
			m := res.Metrics
			s.Metrics = &m
		}
	}
	return s
}

// refreshRemote folds a remote job's persisted control-plane record into
// the local view: its owner's state transitions — including terminal ones
// — become visible here without any node-to-node channel beyond the store.
func (st *store) refreshRemote(j *Job) {
	rec, err := readRecord(j.Dir)
	if err != nil {
		return
	}
	j.mu.Lock()
	if j.remote && !j.state.terminal() {
		if rec.State.terminal() {
			j.state = rec.State
			j.errMsg = rec.Error
		} else if rec.State == StateRunning {
			j.state = StateRunning
		}
		j.attempts = rec.Attempts
		j.preemptions = rec.Preemptions
	}
	j.mu.Unlock()
}

func loadResult(dir string) (*result, error) {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats is the service-level counter snapshot (GET /v1/stats).
type Stats struct {
	NodeID     string `json:"node_id,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Running    int    `json:"running"`
	Workers    int    `json:"workers"`
	Draining   bool   `json:"draining"`
	Halted     bool   `json:"halted,omitempty"`
	Goroutines int    `json:"goroutines"`
	// CacheHits/CacheMisses count exact-result-cache outcomes at
	// admission; CacheEvictions counts entries removed by the LRU bounds;
	// FencedWrites counts zombie writes refused by the lease fence; Steals
	// counts expired leases this node adopted; ShedDegraded counts
	// submissions admitted with a load-shed-clamped spec.
	CacheHits      int64                  `json:"cache_hits"`
	CacheMisses    int64                  `json:"cache_misses"`
	CacheEvictions int64                  `json:"cache_evictions,omitempty"`
	FencedWrites   int64                  `json:"fenced_writes,omitempty"`
	Steals         int64                  `json:"steals,omitempty"`
	ShedDegraded   int64                  `json:"shed_degraded,omitempty"`
	Tenants        map[string]TenantStats `json:"tenants,omitempty"`
	States         map[State]int          `json:"states,omitempty"`
}

// TenantStats is one tenant's share of the service.
type TenantStats struct {
	Active  int `json:"active"`
	Running int `json:"running"`
}
