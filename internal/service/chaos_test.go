package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"

	"syscall"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/faultinject"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
)

// The service chaos suite attacks the daemon the way production does: a
// worker panic injected mid-job, a worker process SIGKILLed mid-job, and a
// flood of submissions — and asserts the strong contract every time: the
// affected job resumes from its checkpoint and finishes with outputs
// byte-identical to an uninterrupted run, unaffected concurrent jobs never
// notice, and after a full drain the daemon is back to its goroutine
// baseline.

// TestMain re-execs this binary as an isolated worker process: with
// CRPD_RUN_JOB set the process runs exactly one job attempt (the same
// entry point cmd/crpd uses) instead of the test suite — so the SIGKILL
// chaos test kills a real worker process, not a simulation.
func TestMain(m *testing.M) {
	if dir := os.Getenv(EnvRunJob); dir != "" {
		os.Exit(RunWorkerAttempt(dir))
	}
	os.Exit(m.Run())
}

// TestChaosWorkerPanicIsolated injects a faultinject-driven panic into one
// job's first attempt at its second checkpoint commit, with three jobs in
// flight. The victim retries and resumes from the checkpoint; all three
// finish byte-identical to uninterrupted runs.
func TestChaosWorkerPanicIsolated(t *testing.T) {
	inj := faultinject.New(faultinject.CrashAt(faultinject.StageCheckpoint, 2))
	inj.Exit = func(code int) {
		panic(fmt.Sprintf("injected worker crash (would exit %d)", code))
	}
	victim := "j000001"
	cfg := Config{
		Workers: 3,
		Instrument: func(jobID string, attempt int, _ *flow.Config, ck *flow.Checkpointing) {
			if jobID != victim || attempt != 1 {
				return
			}
			hook := inj.CheckpointHook()
			orig := ck.AfterSave
			ck.AfterSave = func(n int) {
				hook(n)
				if orig != nil {
					orig(n)
				}
			}
		},
	}
	svc := newService(t, cfg)

	specs := []Spec{synthSpec(71, 2), synthSpec(72, 2), synthSpec(73, 2)}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st := waitStatus(t, svc, id, func(s Status) bool { return s.State.terminal() })
		if st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		wantAttempts := 1
		if id == victim {
			wantAttempts = 2 // the panicked attempt plus the resume
		}
		if st.Attempts != wantAttempts {
			t.Errorf("job %s attempts = %d, want %d", id, st.Attempts, wantAttempts)
		}
		wantDef, wantGuide := referenceOutputs(t, specs[i])
		gotDef, gotGuide := jobOutputs(t, svc, id)
		if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
			t.Errorf("job %s outputs differ from uninterrupted run", id)
		}
	}
	if fired := inj.Fired(); len(fired) != 1 {
		t.Errorf("injector fired %v, want exactly one crash", fired)
	}
	// The panic is on the record as a degradation event, not hidden.
	evs, err := decodeJournal(svcJobDir(t, svc, victim))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range evs {
		if e.Kind == "degradation" && e.Fault == "worker-panic" {
			found = true
		}
	}
	if !found {
		t.Error("victim journal has no worker-panic degradation event")
	}
}

func svcJobDir(t *testing.T, svc *Service, id string) string {
	t.Helper()
	j, err := svc.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j.Dir
}

// TestChaosChildSIGKILL runs jobs in isolated worker processes and
// SIGKILLs one mid-run — a real kill of a real process, no cooperation.
// The daemon survives, the victim resumes from its checkpoint on a fresh
// child, the concurrent job is undisturbed, and both finish byte-identical
// to uninterrupted runs.
func TestChaosChildSIGKILL(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, Config{Workers: 2, Exec: []string{exe}})

	// The victim is deliberately longer so the kill window — after its
	// first committed iteration, before its last — is wide.
	victim := Spec{
		Synthetic: &ispd.Spec{
			Name: "svc_kill", Node: "n45", Cells: 250, Nets: 200,
			Utilisation: 0.87, Hotspots: 2, IOFraction: 0.03, Seed: 81,
		},
		K: 5, Seed: 81,
	}
	bystander := synthSpec(82, 1)
	vst, err := svc.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := svc.Submit(bystander)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the worker once it has committed at least one iteration.
	st := waitStatus(t, svc, vst.ID, func(s Status) bool {
		return s.WorkerPID > 0 && s.Iter >= 1
	})
	if err := syscall.Kill(st.WorkerPID, syscall.SIGKILL); err != nil {
		t.Fatalf("killing worker %d: %v", st.WorkerPID, err)
	}

	fin := waitStatus(t, svc, vst.ID, func(s Status) bool { return s.State.terminal() })
	if fin.State != StateDone {
		t.Fatalf("killed job ended %s (%s)", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Errorf("killed job attempts = %d, want 2", fin.Attempts)
	}
	bfin := waitStatus(t, svc, bst.ID, func(s Status) bool { return s.State.terminal() })
	if bfin.State != StateDone || bfin.Attempts != 1 {
		t.Errorf("bystander = %+v, want done in 1 attempt", bfin)
	}

	wantDef, wantGuide := referenceOutputs(t, victim)
	gotDef, gotGuide := jobOutputs(t, svc, vst.ID)
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Error("SIGKILLed+resumed outputs differ from uninterrupted run")
	}
	// The kill is journaled as a worker-killed degradation.
	evs, err := decodeJournal(svcJobDir(t, svc, vst.ID))
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	for _, e := range evs {
		if e.Kind == "degradation" && e.Fault == "worker-killed" {
			killed = true
		}
	}
	if !killed {
		t.Error("victim journal has no worker-killed degradation event")
	}
}

// TestChaosRetryCapExhaustion: a job whose every attempt crashes fails
// explicitly after the retry cap, with the cause on record, while the
// daemon keeps serving.
func TestChaosRetryCapExhaustion(t *testing.T) {
	svc := newService(t, Config{
		Workers:  1,
		RetryCap: 2,
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
	st, err := svc.Submit(synthSpec(91, 1))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, svc, st.ID, func(s Status) bool { return s.State.terminal() })
	if fin.State != StateFailed || fin.Attempts != 2 || fin.Error == "" {
		t.Errorf("doomed job = %+v, want failed after 2 attempts with cause", fin)
	}
	// The daemon still serves: the next job sails through.
	ok, err := svc.Submit(synthSpec(92, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitStatus(t, svc, ok.ID, func(s Status) bool { return s.State.terminal() }); fin.State != StateDone {
		t.Errorf("follow-up job ended %s", fin.State)
	}
}

// TestGoroutineBaselineAfterDrain (the leak check): run a batch of jobs,
// drain fully, and the daemon's goroutine count returns to where it
// started — workers, watchdogs, streamers and child reapers all exit.
func TestGoroutineBaselineAfterDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, err := New(Config{DataDir: t.TempDir(), Workers: 3,
		RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := svc.Submit(synthSpec(100+int64(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitStatus(t, svc, id, func(s Status) bool { return s.State.terminal() })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Drain returns once the workers have exited, but an exited goroutine
	// leaves runtime.NumGoroutine only when the runtime retires it, which
	// nothing signals: the count is polled, with a bound.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain (tolerance +2)", before, runtime.NumGoroutine())
}
