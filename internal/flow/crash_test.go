package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/faultinject"
	"github.com/crp-eda/crp/internal/ispd"
)

// The crash-chaos suite validates the crash-safety contract end to end:
// kill a checkpointed run at *every* checkpoint boundary, resume it, and
// the final DEF and route-guide bytes must equal an uninterrupted run's.
// It also covers the recovery ladder (corrupt newest checkpoint → previous
// one + replay) and the process-level story (cmd/crpd-style supervision of
// a child that really crashes via an injected os.Exit).

// TestMain re-execs this binary as the crashing child of the supervisor
// test: with CRP_CRASH_CHILD set, the process runs one supervised job
// (resume-or-start + checkpoint + planned crash) instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("CRP_CRASH_CHILD") == "1" {
		crashChildMain()
		return
	}
	os.Exit(m.Run())
}

// suiteDesign generates benchmark circuit idx of the scaled ISPD-2018-style
// suite (0 = crp_test1, 1 = crp_test2); generation is deterministic, so the
// child process and every boundary sweep see identical inputs.
func suiteDesign(tb testing.TB, idx int) *db.Design {
	tb.Helper()
	d, err := ispd.Generate(ispd.Suite(0.02)[idx])
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func openManager(tb testing.TB, dir string, keep int) *checkpoint.Manager {
	tb.Helper()
	m, err := checkpoint.Open(dir, keep)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// runToBytes runs the checkpointed flow and returns the output bytes.
func runToBytes(tb testing.TB, d *db.Design, k int, cfg Config, ck *Checkpointing) (defB, guideB []byte, res *Result) {
	tb.Helper()
	var def, guide bytes.Buffer
	res, err := RunCRPCheckpointed(context.Background(), d, k, cfg, ck, &def, &guide)
	if err != nil {
		tb.Fatal(err)
	}
	return def.Bytes(), guide.Bytes(), res
}

func TestCheckpointingDisabledBitIdentical(t *testing.T) {
	// Acceptance gate: with no checkpoint manager the new entry point must
	// be byte-for-byte the pre-existing pipeline.
	var defA, guideA bytes.Buffer
	if _, err := RunCRPCheckpointed(context.Background(), design(t, 50), 2, quickConfig(), nil, &defA, &guideA); err != nil {
		t.Fatal(err)
	}
	defB, guideB, _ := runToBytes(t, design(t, 50), 2, quickConfig(), nil)
	if !bytes.Equal(defA.Bytes(), defB) || !bytes.Equal(guideA.Bytes(), guideB) {
		t.Fatal("RunCRPCheckpointed without a manager diverged from RunCRPWithOutputs")
	}
}

func TestCheckpointingEnabledBitIdentical(t *testing.T) {
	// Checkpoint writes are pure observers: enabling them must not change
	// the answer.
	defA, guideA, _ := runToBytes(t, design(t, 51), 2, quickConfig(), nil)
	ck := &Checkpointing{Manager: openManager(t, t.TempDir(), 0)}
	defB, guideB, res := runToBytes(t, design(t, 51), 2, quickConfig(), ck)
	if !bytes.Equal(defA, defB) || !bytes.Equal(guideA, guideB) {
		t.Fatal("journaling changed the pipeline's outputs")
	}
	if res.Degraded() {
		t.Fatalf("healthy journaling degraded the run: %v", res.Degradations)
	}
}

// resumeBitIdentityEveryBoundary is the tentpole assertion for one
// benchmark circuit: for every checkpoint boundary b, a run killed right
// after the bth checkpoint commit and then resumed produces the exact
// bytes of the uninterrupted run.
func resumeBitIdentityEveryBoundary(t *testing.T, idx, k int) {
	cfg := quickConfig()
	ck := &Checkpointing{Manager: openManager(t, t.TempDir(), 0)}
	saves := 0
	ck.AfterSave = func(n int) { saves = n }
	wantDEF, wantGuide, res := runToBytes(t, suiteDesign(t, idx), k, cfg, ck)
	if res.Degraded() {
		t.Fatalf("reference run degraded: %v", res.Degradations)
	}
	if saves != k+1 {
		t.Fatalf("%d checkpoints committed, want %d (post-GR + per iteration)", saves, k+1)
	}

	for b := 1; b <= saves; b++ {
		b := b
		t.Run(fmt.Sprintf("boundary%d", b), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck := &Checkpointing{Manager: openManager(t, dir, 0)}
			// "Crash" right after the bth durable commit: cancel stops the
			// loop at the next boundary and the in-memory run is discarded —
			// only the checkpoint directory survives, as after a real kill.
			ck.AfterSave = func(n int) {
				if n == b {
					cancel()
				}
			}
			if _, err := RunCRPCheckpointed(ctx, suiteDesign(t, idx), k, cfg, ck, nil, nil); err != nil {
				t.Fatal(err)
			}

			var def, guide bytes.Buffer
			res, err := Resume(context.Background(), suiteDesign(t, idx), k, cfg,
				&Checkpointing{Manager: openManager(t, dir, 0)}, &def, &guide)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(def.Bytes(), wantDEF) {
				t.Error("resumed DEF differs from the uninterrupted run")
			}
			if !bytes.Equal(guide.Bytes(), wantGuide) {
				t.Error("resumed guides differ from the uninterrupted run")
			}
			if res.CRPStats.TotalMoved != 0 && res.Metrics.Vias <= 0 {
				t.Error("resumed run did not complete to metrics")
			}
		})
	}
}

func TestResumeBitIdentityEveryBoundaryTest1(t *testing.T) {
	resumeBitIdentityEveryBoundary(t, 0, 3)
}

func TestResumeBitIdentityEveryBoundaryTest2(t *testing.T) {
	if testing.Short() {
		t.Skip("crp_test2 sweep is the long half of the crash suite")
	}
	resumeBitIdentityEveryBoundary(t, 1, 2)
}

func TestResumeFallsBackAcrossCorruptCheckpoint(t *testing.T) {
	cfg := quickConfig()
	dir := t.TempDir()
	ck := &Checkpointing{Manager: openManager(t, dir, 3)}
	wantDEF, wantGuide, _ := runToBytes(t, design(t, 52), 2, cfg, ck)

	// Tear the newest checkpoint file; recovery must step back one
	// boundary and deterministically replay the lost iteration.
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(files) < 2 {
		t.Fatalf("checkpoint files = %v (err %v)", files, err)
	}
	newest := files[0]
	for _, f := range files {
		if f > newest {
			newest = f
		}
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}

	var def, guide bytes.Buffer
	res, err := Resume(context.Background(), design(t, 52), 2, cfg,
		&Checkpointing{Manager: openManager(t, dir, 3)}, &def, &guide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def.Bytes(), wantDEF) || !bytes.Equal(guide.Bytes(), wantGuide) {
		t.Error("fallback + replay diverged from the uninterrupted run")
	}
	found := false
	for _, d := range res.Degradations {
		if d.Stage == "ckpt" && d.Kind == "checkpoint-recovery" {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback left no recovery degradation: %v", res.Degradations)
	}
}

func TestResumeRefusesMismatchedRun(t *testing.T) {
	cfg := quickConfig()
	dir := t.TempDir()
	ck := &Checkpointing{Manager: openManager(t, dir, 0)}
	runToBytes(t, design(t, 53), 2, cfg, ck)

	reopen := func() *Checkpointing {
		return &Checkpointing{Manager: openManager(t, dir, 0)}
	}
	if _, err := Resume(context.Background(), design(t, 53), 4, cfg, reopen(), nil, nil); err == nil {
		t.Error("different k accepted")
	}
	cfg2 := quickConfig()
	cfg2.CRP.Seed = 77
	if _, err := Resume(context.Background(), design(t, 53), 2, cfg2, reopen(), nil, nil); err == nil {
		t.Error("different seed accepted")
	}
	if _, err := Resume(context.Background(), suiteDesign(t, 0), 2, cfg, reopen(), nil, nil); err == nil {
		t.Error("different design accepted")
	}
	// Same netlist under another name: only the identity check can refuse it.
	renamed := design(t, 53)
	renamed.Name = "renamed_fixture"
	if _, err := ECOFromCheckpoint(context.Background(), renamed, reopen().Manager, &eco.Delta{}, cfg, ECOOptions{}, nil, nil); err == nil {
		t.Error("ECO against a different design's checkpoint accepted")
	}
}

func TestResumeEmptyDirReturnsErrNoCheckpoint(t *testing.T) {
	_, err := Resume(context.Background(), design(t, 54), 2, quickConfig(),
		&Checkpointing{Manager: openManager(t, t.TempDir(), 0)}, nil, nil)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointWriteFailureDegradesNotFatal(t *testing.T) {
	dir := t.TempDir()
	ck := &Checkpointing{Manager: openManager(t, dir, 0)}
	// Pull the directory out from under the manager: every save now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	defB, guideB, res := runToBytes(t, design(t, 55), 2, quickConfig(), ck)
	if len(defB) == 0 || len(guideB) == 0 {
		t.Fatal("run with failing checkpoints produced no outputs")
	}
	found := 0
	for _, d := range res.Degradations {
		if d.Stage == "ckpt" && d.Kind == "checkpoint-write-failed" {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("failed saves left no degradations: %v", res.Degradations)
	}
	defA, guideA, _ := runToBytes(t, design(t, 55), 2, quickConfig(), nil)
	if !bytes.Equal(defA, defB) || !bytes.Equal(guideA, guideB) {
		t.Error("failing checkpoint writes changed the pipeline's answer")
	}
}

// --- process-level supervision: a child that really dies ---

const (
	childK       = 3
	childCircuit = 0
)

// crashChildMain is one supervised attempt: resume (or start) the
// checkpointed flow on the fixture circuit, with a planned process exit
// after the Nth checkpoint commit of *this attempt*. Exits 0 on a clean
// finish, CrashExitCode when the planned crash fires first.
func crashChildMain() {
	dir := os.Getenv("CRP_CKPT_DIR")
	crashAt, _ := strconv.Atoi(os.Getenv("CRP_CRASH_AT"))
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	d, err := ispd.Generate(ispd.Suite(0.02)[childCircuit])
	if err != nil {
		fail(err)
	}
	mgr, err := checkpoint.Open(dir, 0)
	if err != nil {
		fail(err)
	}
	inj := faultinject.New(faultinject.CrashAt(faultinject.StageCheckpoint, crashAt))
	ck := &Checkpointing{Manager: mgr, AfterSave: inj.CheckpointHook()}
	cfg := quickConfig()
	var def, guide bytes.Buffer
	res, err := Resume(context.Background(), d, childK, cfg, ck, &def, &guide)
	if errors.Is(err, ErrNoCheckpoint) {
		res, err = RunCRPCheckpointed(context.Background(), d, childK, cfg, ck, &def, &guide)
	}
	if err != nil {
		fail(err)
	}
	_ = res
	if err := atomicio.WriteFileBytes(os.Getenv("CRP_OUT_DEF"), def.Bytes()); err != nil {
		fail(err)
	}
	if err := atomicio.WriteFileBytes(os.Getenv("CRP_OUT_GUIDE"), guide.Bytes()); err != nil {
		fail(err)
	}
	os.Exit(0)
}

func TestSupervisorDrivesCrashingRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary several times")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	defPath := filepath.Join(work, "out.def")
	guidePath := filepath.Join(work, "out.guide")
	t.Setenv("CRP_CRASH_CHILD", "1")
	t.Setenv("CRP_CKPT_DIR", filepath.Join(work, "ckpt"))
	t.Setenv("CRP_OUT_DEF", defPath)
	t.Setenv("CRP_OUT_GUIDE", guidePath)
	t.Setenv("CRP_CRASH_AT", "2") // die after the 2nd checkpoint commit of every attempt

	// Re-exec the child until an attempt finishes cleanly; each restart
	// resumes from the previous attempt's newest checkpoint.
	const maxAttempts = 6
	var childOut bytes.Buffer
	var crashes []int // exit codes of the attempts that died
	for {
		if len(crashes) == maxAttempts {
			t.Fatalf("child still failing after %d attempts (exit codes %v)\nchild output:\n%s",
				maxAttempts, crashes, childOut.String())
		}
		cmd := exec.Command(exe)
		cmd.Stdout, cmd.Stderr = &childOut, &childOut
		err := cmd.Run()
		if err == nil {
			break
		}
		var xerr *exec.ExitError
		if !errors.As(err, &xerr) {
			t.Fatalf("attempt %d: %v", len(crashes)+1, err)
		}
		crashes = append(crashes, xerr.ExitCode())
	}
	if len(crashes) == 0 {
		t.Fatal("child never crashed — the fault did not fire")
	}
	for i, code := range crashes {
		if code != faultinject.CrashExitCode {
			t.Errorf("attempt %d exited %d, want the injected crash code %d",
				i+1, code, faultinject.CrashExitCode)
		}
	}

	// The supervised, repeatedly-killed run must still land on the exact
	// bytes of an uninterrupted in-process run.
	wantDEF, wantGuide, _ := runToBytes(t, suiteDesign(t, childCircuit), childK, quickConfig(), nil)
	gotDEF, err := os.ReadFile(defPath)
	if err != nil {
		t.Fatal(err)
	}
	gotGuide, err := os.ReadFile(guidePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDEF, wantDEF) {
		t.Error("supervised DEF differs from the uninterrupted run")
	}
	if !bytes.Equal(gotGuide, wantGuide) {
		t.Error("supervised guides differ from the uninterrupted run")
	}
}
