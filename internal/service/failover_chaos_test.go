package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/faultinject"
	"github.com/crp-eda/crp/internal/flow"
)

// The failover chaos suite attacks the multi-node story: two daemons
// sharing one DataDir, one of them killed (Halt — the in-process SIGKILL)
// or partitioned (dropped heartbeat renewals) at deterministic points, and
// asserts the strong contract every time: the survivor adopts the job via
// lease expiry, resumes from the latest checkpoint, and finishes with
// outputs byte-identical to an uninterrupted run; the zombie's late writes
// are fenced and counted, never visible; completion is exactly-once (one
// "done" journal event, ever). Plus the load-shed ladder engaging in
// order and the exact result cache serving byte-identical artifacts.

// failoverTTL is short enough that a test waits milliseconds for an
// orphaned lease to lapse, long enough that a live node's heartbeats
// (TTL/4) never miss it.
const failoverTTL = 250 * time.Millisecond

// adoptAndFinish polls svc — forcing a reconciliation scan each round,
// what the scheduler does every RescanEvery — until it has adopted job id
// and driven it to a terminal state. It polls because adoption waits on a
// lease's expiry, a deadline on the wall clock that nothing signals.
func adoptAndFinish(t *testing.T, svc *Service, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		svc.Scan()
		st, err := svc.Status(id)
		if err == nil && st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never finished job %s; last status %+v err %v",
				svc.cfg.NodeID, id, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func countEvents(t *testing.T, dir, kind string) int {
	t.Helper()
	evs, err := decodeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range evs {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestFailoverKillAtEveryCheckpointBoundary kills the owning node (Halt:
// heartbeats, writes and transitions stop instantly, leases stay
// un-released) immediately after each checkpoint commit of a k=2 job —
// the post-GR boundary and both iteration boundaries. A second node
// sharing the store adopts the orphan once its lease lapses and must
// finish it byte-identical to an uninterrupted run, every time.
func TestFailoverKillAtEveryCheckpointBoundary(t *testing.T) {
	spec := synthSpec(401, 2)
	wantDef, wantGuide := referenceOutputs(t, spec)

	for boundary := 1; boundary <= 3; boundary++ {
		t.Run(fmt.Sprintf("boundary%d", boundary), func(t *testing.T) {
			dataDir := t.TempDir()
			halted := make(chan struct{})
			var once sync.Once
			var svcA *Service
			svcA = newService(t, Config{
				DataDir: dataDir, Workers: 1, NodeID: "nodeA",
				LeaseTTL: failoverTTL,
				Instrument: func(jobID string, attempt int, _ *flow.Config, ck *flow.Checkpointing) {
					orig := ck.AfterSave
					ck.AfterSave = func(n int) {
						if n == boundary {
							// The checkpoint at this boundary is already
							// committed; the node dies before anything else
							// becomes durable.
							once.Do(func() {
								svcA.Halt()
								close(halted)
							})
						}
						if orig != nil {
							orig(n)
						}
					}
				},
			})

			st, err := svcA.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-halted:
			case <-time.After(120 * time.Second):
				t.Fatal("node A never reached the target checkpoint boundary")
			}

			svcB := newService(t, Config{
				DataDir: dataDir, Workers: 1, NodeID: "nodeB",
				LeaseTTL: failoverTTL,
				// Adoption is driven explicitly via Scan() so the test is
				// deterministic, not racing the background rescan.
				RescanEvery: time.Hour,
			})
			fin := adoptAndFinish(t, svcB, st.ID)
			if fin.State != StateDone {
				t.Fatalf("adopted job ended %s (%s)", fin.State, fin.Error)
			}

			gotDef, gotGuide := jobOutputs(t, svcB, st.ID)
			if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
				t.Error("failover outputs differ from uninterrupted run")
			}
			if steals := svcB.Stats().Steals; steals != 1 {
				t.Errorf("node B steals = %d, want 1", steals)
			}
			if done := countEvents(t, svcJobDir(t, svcB, st.ID), "done"); done != 1 {
				t.Errorf("journal has %d done events, want exactly 1", done)
			}
			if !svcA.Stats().Halted {
				t.Error("node A stats do not report the halt")
			}
		})
	}
}

// TestFailoverPartitionZombieFenced partitions the owner's heartbeats (every
// renewal silently dropped — the node believes they succeed) while its
// attempt is pinned at a checkpoint boundary. A second node steals the
// expired lease and completes the job; when the zombie resumes computing,
// every durable write it tries — checkpoints, journal events, outputs — is
// refused by its superseded fencing token and counted. Completion is
// exactly-once and byte-identical; the zombie eventually folds the thief's
// terminal state into its own view.
func TestFailoverPartitionZombieFenced(t *testing.T) {
	spec := synthSpec(411, 2)
	wantDef, wantGuide := referenceOutputs(t, spec)
	dataDir := t.TempDir()

	inj := faultinject.New(faultinject.Plan{DropRenewalsFromCall: 1})
	hold := newHolder("j000001")
	defer hold.Release()
	svcA := newService(t, Config{
		DataDir: dataDir, Workers: 1, NodeID: "nodeA",
		LeaseTTL:   failoverTTL,
		LeaseHooks: LeaseHooks{DropRenewal: inj.RenewDropHook()},
		Instrument: hold.instrument,
	})
	st, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t) // attempt pinned after iteration 1's checkpoint

	svcB := newService(t, Config{
		DataDir: dataDir, Workers: 1, NodeID: "nodeB",
		LeaseTTL: failoverTTL, RescanEvery: time.Hour,
	})
	fin := adoptAndFinish(t, svcB, st.ID)
	if fin.State != StateDone {
		t.Fatalf("stolen job ended %s (%s)", fin.State, fin.Error)
	}
	if steals := svcB.Stats().Steals; steals != 1 {
		t.Errorf("node B steals = %d, want 1", steals)
	}

	// Snapshot the committed artifacts before waking the zombie, then
	// verify the zombie's late writes change nothing.
	jobDir := svcJobDir(t, svcB, st.ID)
	committed := map[string][]byte{}
	for _, name := range []string{"out.def", "out.guide", "result.json"} {
		data, err := os.ReadFile(filepath.Join(jobDir, name))
		if err != nil {
			t.Fatal(err)
		}
		committed[name] = data
	}

	hold.Release()
	// The zombie's view converges to the thief's outcome (via the shared
	// state record), without ever writing anything itself.
	zfin := waitStatus(t, svcA, st.ID, func(s Status) bool { return s.State.terminal() })
	if zfin.State != StateDone {
		t.Errorf("zombie's folded state = %s, want done", zfin.State)
	}
	if fw := svcA.Stats().FencedWrites; fw < 1 {
		t.Errorf("node A fenced writes = %d, want >= 1 (the zombie tried to write)", fw)
	}
	if fw := svcB.Stats().FencedWrites; fw != 0 {
		t.Errorf("node B fenced writes = %d, want 0 (the thief owns the lease)", fw)
	}

	gotDef, gotGuide := jobOutputs(t, svcB, st.ID)
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Error("stolen-job outputs differ from uninterrupted run")
	}
	for name, want := range committed {
		got, err := os.ReadFile(filepath.Join(jobDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed after the zombie resumed; stale writes leaked through the fence", name)
		}
	}
	if done := countEvents(t, jobDir, "done"); done != 1 {
		t.Errorf("journal has %d done events, want exactly 1", done)
	}
}

// TestShedLadderEngagesInOrder drives the three-rung overload ladder with
// the single worker pinned: the exact cache serves even at a full queue
// (rung 1), near-saturation admissions are degraded with the clamps on
// record (rung 2), and only a truly full queue gets the structured 429
// (rung 3). Bystanders admitted before the ladder engaged keep their
// pristine spec and outputs.
func TestShedLadderEngagesInOrder(t *testing.T) {
	cached := synthSpec(420, 1)
	hold := newHolder("j000002")
	defer hold.Release()
	svc := newService(t, Config{
		Workers: 1, QueueCap: 4,
		Shed:       &ShedPolicy{Threshold: 0.5, MaxK: 1},
		Instrument: hold.instrument,
	})

	// Seed the cache with a completed run, then pin the only worker.
	seed, err := svc.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, seed.ID, isState(StateDone))
	blocker, err := svc.Submit(synthSpec(421, 2))
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)

	// Fill the queue: depths 0 and 1 are below the 0.5×4 threshold and
	// admit pristine; depths 2 and 3 are shed-degraded.
	ids := make([]string, 4)
	for i := range ids {
		st, err := svc.Submit(synthSpec(430+int64(i), 3))
		if err != nil {
			t.Fatalf("fill submission %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// Rung 3: the full queue rejects with the structured 429.
	_, err = svc.Submit(synthSpec(440, 3))
	var api *APIError
	if !errors.As(err, &api) || api.Code != "queue_full" || api.Status != 429 {
		t.Fatalf("full-queue submit err = %v, want queue_full 429", err)
	}
	if api.QueueDepth != 4 || api.QueueCap != 4 {
		t.Errorf("queue_full depth/cap = %d/%d, want 4/4", api.QueueDepth, api.QueueCap)
	}

	// Rung 1: the cache serves the seeded spec instantly at a full queue —
	// no queue slot, no worker, no lease.
	hit, err := svc.Submit(cached)
	if err != nil {
		t.Fatalf("cache-hit submit at full queue: %v", err)
	}
	if hit.State != StateDone || hit.Attempts != 0 {
		t.Errorf("cached serve = %+v, want done with 0 attempts", hit)
	}
	stats := svc.Stats()
	if stats.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", stats.CacheHits)
	}
	if stats.QueueDepth != 4 {
		t.Errorf("queue depth after cache serve = %d, want 4 (no slot consumed)", stats.QueueDepth)
	}
	if stats.ShedDegraded != 2 {
		t.Errorf("shed-degraded admissions = %d, want 2", stats.ShedDegraded)
	}
	hitDef, hitGuide := jobOutputs(t, svc, hit.ID)
	seedDef, seedGuide := jobOutputs(t, svc, seed.ID)
	if !bytes.Equal(hitDef, seedDef) || !bytes.Equal(hitGuide, seedGuide) {
		t.Error("cache-served outputs differ from the run that populated the cache")
	}

	hold.Release()
	waitStatus(t, svc, blocker.ID, isState(StateDone))
	for _, id := range ids {
		if fin := waitStatus(t, svc, id, func(s Status) bool { return s.State.terminal() }); fin.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, fin.State, fin.Error)
		}
	}

	// Rung 2 bystanders: the pristine admissions ran the full K=3 spec,
	// byte-identical to an undisturbed run, with no degradations.
	pristine := synthSpec(430, 3)
	wantDef, wantGuide := referenceOutputs(t, pristine)
	gotDef, gotGuide := jobOutputs(t, svc, ids[0])
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Error("pristine bystander outputs differ from uninterrupted run")
	}
	for _, id := range ids[:2] {
		res, err := loadResult(svcJobDir(t, svc, id))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Degradations {
			t.Errorf("pristine job %s carries degradation %q", id, d)
		}
	}

	// Rung 2 victims: the shed-degraded admissions ran with K clamped to 1
	// and say so in their result's degradation record.
	for _, id := range ids[2:] {
		res, err := loadResult(svcJobDir(t, svc, id))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 {
			t.Errorf("shed job %s ran %d iterations, want 1 (clamped)", id, res.Iterations)
		}
		found := false
		for _, d := range res.Degradations {
			if strings.Contains(d, "load shed") || strings.Contains(d, "load-shed") {
				found = true
			}
		}
		if !found {
			t.Errorf("shed job %s result has no load-shed degradation; got %v", id, res.Degradations)
		}
	}
	degraded := synthSpec(432, 3)
	degraded.K = 1
	shedDef, shedGuide := referenceOutputs(t, degraded)
	gotDef, gotGuide = jobOutputs(t, svc, ids[2])
	if !bytes.Equal(gotDef, shedDef) || !bytes.Equal(gotGuide, shedGuide) {
		t.Error("shed-degraded outputs differ from a direct run of the clamped spec")
	}
}

// TestResultCacheExactDifferential: resubmitting an identical spec serves
// the cached result — zero attempts, a cache-hit journal event, and all
// three artifacts byte-identical to the original run (which itself is
// byte-identical to the flow oracle). A different spec misses; a daemon
// with the cache disabled recomputes.
func TestResultCacheExactDifferential(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	spec := synthSpec(450, 2)

	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, first.ID, isState(StateDone))
	wantDef, wantGuide := referenceOutputs(t, spec)
	gotDef, gotGuide := jobOutputs(t, svc, first.ID)
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Fatal("first run differs from the flow oracle; cache differential is meaningless")
	}

	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Attempts != 0 {
		t.Fatalf("cached resubmission = %+v, want immediately done with 0 attempts", second)
	}
	evs, err := decodeJournal(svcJobDir(t, svc, second.ID))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	if got := strings.Join(kinds, ","); got != "submitted,cache-hit,done" {
		t.Errorf("cached job events = %s, want submitted,cache-hit,done", got)
	}
	for _, name := range []string{"out.def", "out.guide", "result.json"} {
		a, err := os.ReadFile(filepath.Join(svcJobDir(t, svc, first.ID), name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(svcJobDir(t, svc, second.ID), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cached %s differs from the original run's", name)
		}
	}

	// A different spec is a miss and computes for real.
	other, err := svc.Submit(synthSpec(451, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitStatus(t, svc, other.ID, isState(StateDone)); fin.Attempts != 1 {
		t.Errorf("different spec attempts = %d, want 1 (cache must not serve it)", fin.Attempts)
	}
	stats := svc.Stats()
	if stats.CacheHits != 1 || stats.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", stats.CacheHits, stats.CacheMisses)
	}

	t.Run("disabled", func(t *testing.T) {
		svc := newService(t, Config{Workers: 1, DisableCache: true})
		sp := synthSpec(455, 1)
		a, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, svc, a.ID, isState(StateDone))
		b, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitStatus(t, svc, b.ID, isState(StateDone)); fin.Attempts != 1 {
			t.Errorf("DisableCache resubmission attempts = %d, want 1 (recompute)", fin.Attempts)
		}
		if hits := svc.Stats().CacheHits; hits != 0 {
			t.Errorf("DisableCache cache hits = %d, want 0", hits)
		}
	})
}

// TestRetryBudgetExhausted: a job that crashes every attempt under a tiny
// retry wall-clock budget lands in the terminal retries_exhausted state —
// distinct from failed (the attempt-count cap) — with the cause on record,
// while the daemon keeps serving.
func TestRetryBudgetExhausted(t *testing.T) {
	svc := newService(t, Config{
		Workers:     1,
		RetryCap:    10, // far above what the budget allows
		RetryBudget: time.Millisecond,
		Instrument: func(jobID string, attempt int, _ *flow.Config, ck *flow.Checkpointing) {
			orig := ck.AfterSave
			ck.AfterSave = func(n int) {
				if jobID == "j000001" {
					panic("persistent fault")
				}
				if orig != nil {
					orig(n)
				}
			}
		},
	})
	st, err := svc.Submit(synthSpec(460, 1))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, svc, st.ID, func(s Status) bool { return s.State.terminal() })
	if fin.State != StateRetriesExhausted {
		t.Fatalf("doomed job ended %s, want %s", fin.State, StateRetriesExhausted)
	}
	if fin.Attempts != 1 || fin.Error == "" {
		t.Errorf("exhausted job = %+v, want 1 attempt with cause", fin)
	}
	if n := countEvents(t, svcJobDir(t, svc, st.ID), "retries_exhausted"); n != 1 {
		t.Errorf("journal has %d retries_exhausted events, want 1", n)
	}
	if got := svc.Stats().States[StateRetriesExhausted]; got != 1 {
		t.Errorf("stats states[retries_exhausted] = %d, want 1", got)
	}

	ok, err := svc.Submit(synthSpec(461, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitStatus(t, svc, ok.ID, func(s Status) bool { return s.State.terminal() }); fin.State != StateDone {
		t.Errorf("follow-up job ended %s", fin.State)
	}
}

// TestNodesEndpointListsBothDaemons: two daemons heartbeat into one store;
// each lists both liveness records, and a halted node's record goes stale.
func TestNodesEndpointListsBothDaemons(t *testing.T) {
	dataDir := t.TempDir()
	svcA := newService(t, Config{DataDir: dataDir, NodeID: "nodeA", LeaseTTL: failoverTTL})
	svcB := newService(t, Config{DataDir: dataDir, NodeID: "nodeB", LeaseTTL: failoverTTL})

	// The first heartbeat of each scheduler loop lands asynchronously.
	deadline := time.Now().Add(30 * time.Second)
	var nodes []NodeStatus
	for {
		nodes = svcB.Nodes()
		if len(nodes) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes = %+v, want nodeA and nodeB", nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if nodes[0].Node != "nodeA" || nodes[1].Node != "nodeB" {
		t.Fatalf("nodes = %+v, want nodeA and nodeB", nodes)
	}
	for _, n := range nodes {
		if n.Expired {
			t.Errorf("node %s already expired", n.Node)
		}
	}

	svcA.Halt()
	deadline = time.Now().Add(30 * time.Second)
	for {
		nodes = svcB.Nodes()
		if len(nodes) == 2 && nodes[0].Expired && !nodes[1].Expired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("halted node never expired; nodes = %+v", nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// haltWithUnreadableLease runs spec on node A of dataDir until A dies
// (Halt) after the job's second checkpoint commit, holding a lease that
// would stay live for an hour, and returns the job id. Before it returns,
// mid runs — on the live lease — and then the lease record is torn.
func haltWithUnreadableLease(t *testing.T, dataDir string, spec Spec, mid func()) string {
	t.Helper()
	halted := make(chan struct{})
	var once sync.Once
	var svcA *Service
	svcA = newService(t, Config{
		DataDir: dataDir, Workers: 1, NodeID: "nodeA", LeaseTTL: time.Hour,
		Instrument: func(jobID string, attempt int, _ *flow.Config, ck *flow.Checkpointing) {
			orig := ck.AfterSave
			ck.AfterSave = func(n int) {
				if n == 2 {
					once.Do(func() {
						svcA.Halt()
						close(halted)
					})
				}
				if orig != nil {
					orig(n)
				}
			}
		},
	})
	st, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-halted:
	case <-time.After(120 * time.Second):
		t.Fatal("node A never reached its second checkpoint")
	}
	mid()
	if err := os.WriteFile(filepath.Join(dataDir, st.ID, leaseName), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// finishedByteIdentical checks that svc finished job id exactly once with
// the outputs of an uninterrupted run of spec.
func finishedByteIdentical(t *testing.T, svc *Service, id string, spec Spec) {
	t.Helper()
	waitStatus(t, svc, id, isState(StateDone))
	wantDef, wantGuide := referenceOutputs(t, spec)
	gotDef, gotGuide := jobOutputs(t, svc, id)
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Error("adopted job's outputs differ from an uninterrupted run")
	}
	if done := countEvents(t, svcJobDir(t, svc, id), "done"); done != 1 {
		t.Errorf("journal has %d done events, want exactly 1", done)
	}
}

// TestFailoverScanAdoptsUnreadableLease: a dead peer's unfinished job
// whose lease record is unreadable is expired to a scan, as it is to a
// claim: node B, which already tracks the job as the peer's, adopts it on
// its next scan and finishes it.
func TestFailoverScanAdoptsUnreadableLease(t *testing.T) {
	spec := synthSpec(480, 2)
	dataDir := t.TempDir()
	svcB := newService(t, Config{DataDir: dataDir, Workers: 1, NodeID: "nodeB", RescanEvery: time.Hour})
	id := haltWithUnreadableLease(t, dataDir, spec, func() {
		svcB.Scan() // registers the job as node A's: its lease is live
	})

	svcB.Scan()
	j, err := svcB.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	remote := j.remote
	j.mu.Unlock()
	if remote {
		t.Fatal("the scan left a job with an unreadable lease to its dead owner")
	}
	finishedByteIdentical(t, svcB, id, spec)
}

// TestFailoverStartupAdoptsUnreadableLease: a daemon started on a store
// holding a dead peer's unfinished job with an unreadable lease record
// runs the job.
func TestFailoverStartupAdoptsUnreadableLease(t *testing.T) {
	spec := synthSpec(481, 2)
	dataDir := t.TempDir()
	id := haltWithUnreadableLease(t, dataDir, spec, func() {})
	svcB := newService(t, Config{DataDir: dataDir, Workers: 1, NodeID: "nodeB", RescanEvery: time.Hour})
	finishedByteIdentical(t, svcB, id, spec)
}

// TestFailoverECOParentFinishedOnPeer: node B scans a parent job while node
// A still runs it, and reads it as running; once A finishes it, an ECO
// against it is admitted by B, which judges a peer's job by its on-disk
// record, and runs to done.
func TestFailoverECOParentFinishedOnPeer(t *testing.T) {
	dataDir := t.TempDir()
	hold := newHolder("j000001")
	defer hold.Release()
	svcA := newService(t, Config{DataDir: dataDir, Workers: 1, NodeID: "nodeA", Instrument: hold.instrument})
	svcB := newService(t, Config{DataDir: dataDir, Workers: 1, NodeID: "nodeB", RescanEvery: time.Hour})

	parent, err := svcA.Submit(synthSpec(482, 2))
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)
	svcB.Scan()
	// Node A persisted its claim before the attempt began: B reads the
	// held parent as running, with the attempt counted.
	if st, err := svcB.Status(parent.ID); err != nil || st.State != StateRunning || st.Attempts < 1 {
		t.Fatalf("node B sees the held parent as %+v (err %v), want it running with an attempt", st, err)
	}
	hold.Release()
	waitStatus(t, svcA, parent.ID, isState(StateDone))

	child, err := svcB.Submit(Spec{ParentJob: parent.ID, ECODelta: parentDelta(t, svcA, parent.ID, 2, 1, 5), K: 2, Seed: 482})
	if err != nil {
		t.Fatalf("ECO against a parent its peer finished: %v", err)
	}
	waitStatus(t, svcB, child.ID, isState(StateDone))
}
