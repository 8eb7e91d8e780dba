// Package faultinject is the deterministic fault injector behind the flow
// chaos suites. A Plan declares which faults fire and when (call counts, not
// wall-clock, so runs replay identically); an Injector turns the plan into
// the hook functions crp.Hooks accepts and records every fault that
// actually fired.
//
// The zero-fault discipline mirrors PR 1's DisableEstimateCache: an empty
// Plan produces nil hooks, so an un-faulted run executes exactly the
// engine's un-hooked fast path and must be bit-identical to a run without
// the robustness layer at all. The chaos suite asserts both directions.
//
// Beyond in-process faults (worker panics, slowdowns) the injector models
// whole-process crashes: CrashAt(stage, n) plans a process exit at the Nth
// hook call of a stage, which the crash-chaos suite uses to kill a run at
// every checkpoint boundary and assert that resume is bit-identical. The
// exit goes through an injectable seam so unit tests can observe it without
// dying.
package faultinject

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Crash stages accepted by CrashAt / Plan.CrashStage.
const (
	StageGCP        = "gcp"        // candidate-generation worker call
	StageECC        = "ecc"        // cost-estimation worker call
	StagePostUD     = "postud"     // after an iteration's update-database phase
	StageCheckpoint = "checkpoint" // after a checkpoint save commits
)

// CrashExitCode is the exit status of an injected crash — distinct from 0
// (success), 1 (ordinary failure) and 2 (go test panic) so the supervisor
// tests can assert that the child died from the planned fault and nothing
// else.
const CrashExitCode = 43

// Plan declares the faults to inject. The zero value injects nothing.
// Counts are 1-based global call indices: PanicAtGCPCall=3 panics the third
// candidate-generation work item of the whole run.
type Plan struct {
	// PanicAtGCPCall panics inside the worker pool at the Nth candidate
	// generation call (0 disables). The pool must quarantine the cell.
	PanicAtGCPCall int
	// PanicAtECCCall panics at the Nth cost-estimation call (0 disables).
	PanicAtECCCall int
	// ECCSlowdown sleeps this long on every cost-estimation call,
	// simulating a pathologically slow stage so deadline tests fire
	// deterministically regardless of machine speed.
	ECCSlowdown time.Duration
	// CrashStage / CrashAtCall terminate the whole process (exit status
	// CrashExitCode) at the Nth call of the named stage hook — the "kill -9
	// at a deterministic point" fault class. Empty stage or zero count
	// disables. Use CrashAt to build a crash-only plan.
	CrashStage  string
	CrashAtCall int
	// DropRenewalsFromCall suppresses lease heartbeat renewals from the Nth
	// renewal attempt on (0 disables) — the network-partition fault class
	// for the multi-node job service: the node believes its renewals
	// succeed, its lease silently expires, and another node may steal the
	// job while the partitioned "zombie" keeps computing.
	DropRenewalsFromCall int
	// StallLeaseWriteAtCall sleeps LeaseWriteStall immediately before the
	// Nth lease-record write (acquire/renew/release alike; 0 disables) —
	// the fsync-stall fault class. The write itself still completes, so
	// the suite can assert that a slow disk delays but never corrupts
	// lease hand-off.
	StallLeaseWriteAtCall int
	LeaseWriteStall       time.Duration
}

// CrashAt plans a process crash at the Nth call of the stage hook and
// nothing else. Stage is one of StageGCP, StageECC, StagePostUD,
// StageCheckpoint.
func CrashAt(stage string, n int) Plan {
	return Plan{CrashStage: stage, CrashAtCall: n}
}

// event is one fired fault with its canonical sort key.
type event struct {
	stage string
	call  int64
	msg   string
}

// Injector applies a Plan and records what fired. All methods are safe for
// concurrent use — the hooks run inside the engine's worker pool.
type Injector struct {
	plan        Plan
	gcpCalls    atomic.Int64
	eccCalls    atomic.Int64
	postUDCalls atomic.Int64
	ckptCalls   atomic.Int64
	renewCalls  atomic.Int64
	leaseWrites atomic.Int64

	// Exit is the crash seam: CrashAt faults call it with CrashExitCode.
	// It defaults to os.Exit; unit tests replace it to observe the crash
	// without dying.
	Exit func(code int)

	mu    sync.Mutex
	fired []event
}

// New builds an injector for the plan.
func New(plan Plan) *Injector { return &Injector{plan: plan, Exit: os.Exit} }

func (in *Injector) record(stage string, call int64, msg string) {
	in.mu.Lock()
	in.fired = append(in.fired, event{stage: stage, call: call, msg: msg})
	in.mu.Unlock()
}

// Fired returns every fault event that actually fired, in canonical
// (stage, call-count) order. Sorting — rather than arrival order — keeps the
// report deterministic when faults fire concurrently inside the worker
// pool: two planned panics on different workers race to record themselves,
// but their stage and 1-based call index are fixed by the plan.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	evs := append([]event(nil), in.fired...)
	in.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].stage != evs[j].stage {
			return evs[i].stage < evs[j].stage
		}
		return evs[i].call < evs[j].call
	})
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.msg
	}
	return out
}

// crash fires the planned process crash if stage/call match.
func (in *Injector) crash(stage string, call int64) {
	if in.plan.CrashStage != stage || call != int64(in.plan.CrashAtCall) {
		return
	}
	in.record(stage, call, fmt.Sprintf("crash stage=%s call=%d", stage, call))
	in.Exit(CrashExitCode)
}

// GCPHook returns the crp.Hooks.GCP function, or nil when the plan injects
// no candidate-generation faults (nil keeps the engine on its exact
// un-hooked fast path).
func (in *Injector) GCPHook() func(iter, i int) {
	if in.plan.PanicAtGCPCall <= 0 && !in.crashPlanned(StageGCP) {
		return nil
	}
	return func(iter, i int) {
		n := in.gcpCalls.Add(1)
		in.crash(StageGCP, n)
		if in.plan.PanicAtGCPCall > 0 && n == int64(in.plan.PanicAtGCPCall) {
			in.record(StageGCP, n, fmt.Sprintf("gcp-panic call=%d iter=%d item=%d", n, iter, i))
			panic(fmt.Sprintf("faultinject: GCP worker panic (call %d)", n))
		}
	}
}

// ECCHook returns the crp.Hooks.ECC function, or nil when the plan injects
// no cost-estimation faults.
func (in *Injector) ECCHook() func(iter, i int) {
	if in.plan.PanicAtECCCall <= 0 && in.plan.ECCSlowdown <= 0 && !in.crashPlanned(StageECC) {
		return nil
	}
	return func(iter, i int) {
		n := in.eccCalls.Add(1)
		in.crash(StageECC, n)
		if in.plan.ECCSlowdown > 0 {
			time.Sleep(in.plan.ECCSlowdown)
		}
		if in.plan.PanicAtECCCall > 0 && n == int64(in.plan.PanicAtECCCall) {
			in.record(StageECC, n, fmt.Sprintf("ecc-panic call=%d iter=%d item=%d", n, iter, i))
			panic(fmt.Sprintf("faultinject: ECC worker panic (call %d)", n))
		}
	}
}

// PostUDHook returns the crp.Hooks.PostUD function, or nil when no
// post-update-database crash is planned.
func (in *Injector) PostUDHook() func(iter int) {
	if !in.crashPlanned(StagePostUD) {
		return nil
	}
	return func(iter int) {
		in.crash(StagePostUD, in.postUDCalls.Add(1))
	}
}

// CheckpointHook returns a flow.Checkpointing.AfterSave function, or nil
// when no post-checkpoint crash is planned. The call count is the number of
// checkpoints committed so far, so CrashAt(StageCheckpoint, n) kills the
// process immediately after the Nth durable save — the boundary the
// crash-chaos suite sweeps.
func (in *Injector) CheckpointHook() func(n int) {
	if !in.crashPlanned(StageCheckpoint) {
		return nil
	}
	return func(int) {
		in.crash(StageCheckpoint, in.ckptCalls.Add(1))
	}
}

func (in *Injector) crashPlanned(stage string) bool {
	return in.plan.CrashStage == stage && in.plan.CrashAtCall > 0
}

// RenewDropHook returns the lease layer's heartbeat-partition seam, or nil
// when no renewal drops are planned. The hook is called once per renewal
// attempt; returning true means "this renewal is lost in the network" —
// the caller must report local success without touching the shared store.
func (in *Injector) RenewDropHook() func() bool {
	if in.plan.DropRenewalsFromCall <= 0 {
		return nil
	}
	return func() bool {
		n := in.renewCalls.Add(1)
		if n < int64(in.plan.DropRenewalsFromCall) {
			return false
		}
		in.record("lease-renew", n, fmt.Sprintf("renewal-dropped call=%d", n))
		return true
	}
}

// LeaseWriteHook returns the lease layer's fsync-stall seam, or nil when no
// stall is planned. It is called immediately before every durable lease
// write with the operation name ("acquire", "renew", "release").
func (in *Injector) LeaseWriteHook() func(op string) {
	if in.plan.StallLeaseWriteAtCall <= 0 || in.plan.LeaseWriteStall <= 0 {
		return nil
	}
	return func(op string) {
		n := in.leaseWrites.Add(1)
		if n == int64(in.plan.StallLeaseWriteAtCall) {
			in.record("lease-write", n, fmt.Sprintf("lease-write-stalled call=%d op=%s", n, op))
			time.Sleep(in.plan.LeaseWriteStall)
		}
	}
}

// TruncateDEF deterministically truncates DEF (or any) input to frac of its
// length — the "torn file" fault class. frac is clamped to [0, 1].
func TruncateDEF(input []byte, frac float64) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(input)) * frac)
	return append([]byte(nil), input[:n]...)
}
