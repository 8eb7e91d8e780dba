package supervise

import (
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

// fakeClock records sleeps instead of taking them.
type fakeClock struct{ slept []time.Duration }

func (c *fakeClock) sleep(d time.Duration) { c.slept = append(c.slept, d) }

func TestFirstAttemptSuccess(t *testing.T) {
	clock := &fakeClock{}
	rep := Run(Config{Sleep: clock.sleep}, func(n int) (int, error) { return 0, nil })
	if !rep.Succeeded || len(rep.Attempts) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(clock.slept) != 0 {
		t.Fatalf("successful first attempt slept %v", clock.slept)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	clock := &fakeClock{}
	var observed []Attempt
	rep := Run(Config{
		MaxAttempts: 5,
		Sleep:       clock.sleep,
		OnAttempt:   func(at Attempt) { observed = append(observed, at) },
	}, func(n int) (int, error) {
		if n < 3 {
			return 43, errors.New("crashed")
		}
		return 0, nil
	})
	if !rep.Succeeded || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	for _, at := range rep.Attempts[:2] {
		if at.ExitCode != 43 || at.Err == "" {
			t.Fatalf("failed attempt recorded as %+v", at)
		}
	}
	if last := rep.Attempts[2]; last.ExitCode != 0 || last.Err != "" || last.Backoff != 0 {
		t.Fatalf("final attempt recorded as %+v", last)
	}
	if len(clock.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clock.slept))
	}
	if !reflect.DeepEqual(observed, rep.Attempts) {
		t.Fatal("OnAttempt stream diverges from the report")
	}
}

func TestRetryCapExhausted(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	rep := Run(Config{MaxAttempts: 3, Sleep: clock.sleep}, func(n int) (int, error) {
		calls++
		return 1, errors.New("always fails")
	})
	if rep.Succeeded || calls != 3 || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v after %d calls", rep, calls)
	}
	if rep.Attempts[2].Backoff != 0 {
		t.Fatal("no backoff is scheduled after the final attempt")
	}
}

func TestBackoffScheduleDeterministicAndCapped(t *testing.T) {
	schedule := func() []time.Duration {
		clock := &fakeClock{}
		Run(Config{
			MaxAttempts: 6,
			BaseBackoff: 100 * time.Millisecond,
			MaxBackoff:  400 * time.Millisecond,
			JitterSeed:  7,
			Sleep:       clock.sleep,
		}, func(n int) (int, error) { return 1, errors.New("fail") })
		return clock.slept
	}
	a, b := schedule(), schedule()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("%d backoffs for 6 attempts, want 5", len(a))
	}
	base := []time.Duration{100, 200, 400, 400, 400} // ms, pre-jitter, capped
	for i, d := range a {
		lo := base[i] * time.Millisecond
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Errorf("backoff %d = %v outside [%v, %v]", i+1, d, lo, hi)
		}
	}
}

func TestJitterSeedChangesSchedule(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		clock := &fakeClock{}
		Run(Config{MaxAttempts: 4, JitterSeed: seed, Sleep: clock.sleep},
			func(n int) (int, error) { return 1, errors.New("fail") })
		return clock.slept
	}
	if reflect.DeepEqual(schedule(1), schedule(2)) {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

func TestSupervisedCommandEventuallySucceeds(t *testing.T) {
	// A child that crashes until a state file accumulates enough attempts —
	// the process-level analogue of checkpoint/resume convergence.
	state := t.TempDir() + "/attempts"
	script := fmt.Sprintf(`echo x >> %q; [ "$(wc -l < %q)" -ge 3 ] || exit 43`, state, state)
	job := func(attempt int) (int, error) {
		err := exec.Command("sh", "-c", script).Run()
		var xerr *exec.ExitError
		if errors.As(err, &xerr) {
			return xerr.ExitCode(), err
		}
		return 0, err
	}
	clock := &fakeClock{}
	rep := Run(Config{MaxAttempts: 5, Sleep: clock.sleep}, job)
	if !rep.Succeeded || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	for _, at := range rep.Attempts[:2] {
		if at.ExitCode != 43 {
			t.Fatalf("crash exit code not extracted: %+v", at)
		}
	}
}
