package faultinject

import (
	"bytes"
	"strings"
	"testing"
)

func TestZeroPlanProducesNilHooks(t *testing.T) {
	in := New(Plan{})
	if in.GCPHook() != nil || in.ECCHook() != nil {
		t.Fatal("empty plan must produce nil hooks (bit-identity discipline)")
	}
	if len(in.Fired()) != 0 {
		t.Fatal("nothing should have fired")
	}
}

func TestGCPPanicFiresExactlyOnce(t *testing.T) {
	in := New(Plan{PanicAtGCPCall: 3})
	h := in.GCPHook()
	panics := 0
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			h(1, i)
		}()
	}
	if panics != 1 {
		t.Fatalf("panicked %d times, want exactly 1", panics)
	}
	fired := in.Fired()
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "gcp-panic call=3") {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCrashAtFiresExactlyOnceThroughExitSeam(t *testing.T) {
	in := New(CrashAt(StageCheckpoint, 2))
	var codes []int
	in.Exit = func(code int) { codes = append(codes, code) }
	h := in.CheckpointHook()
	if h == nil {
		t.Fatal("planned checkpoint crash produced a nil hook")
	}
	for i := 0; i < 4; i++ {
		h(i + 1)
	}
	if len(codes) != 1 || codes[0] != CrashExitCode {
		t.Fatalf("Exit calls = %v, want one call with %d", codes, CrashExitCode)
	}
	fired := in.Fired()
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "crash stage=checkpoint call=2") {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCrashAtOtherStagesProduceHooks(t *testing.T) {
	for _, stage := range []string{StageGCP, StageECC, StagePostUD} {
		in := New(CrashAt(stage, 1))
		exited := false
		in.Exit = func(int) { exited = true }
		switch stage {
		case StageGCP:
			in.GCPHook()(1, 0)
		case StageECC:
			in.ECCHook()(1, 0)
		case StagePostUD:
			in.PostUDHook()(1)
		}
		if !exited {
			t.Errorf("stage %s: planned crash never reached the exit seam", stage)
		}
	}
}

func TestZeroPlanCrashHooksAreNil(t *testing.T) {
	in := New(Plan{})
	if in.PostUDHook() != nil || in.CheckpointHook() != nil {
		t.Fatal("empty plan must produce nil crash hooks (bit-identity discipline)")
	}
}

func TestFiredCanonicalOrder(t *testing.T) {
	// Events are reported in (stage, call) order regardless of the order
	// they raced in — two worker panics recording concurrently must not
	// make the report flap between runs. Fire the gcp fault before the ecc
	// fault; the report still lists ecc (stage "ecc" < "gcp") first.
	in := New(Plan{PanicAtGCPCall: 1, PanicAtECCCall: 1})
	for _, h := range []func(int, int){in.GCPHook(), in.ECCHook()} {
		func() {
			defer func() { recover() }()
			h(1, 0)
		}()
	}
	fired := in.Fired()
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if !strings.HasPrefix(fired[0], "ecc-panic") || !strings.HasPrefix(fired[1], "gcp-panic") {
		t.Fatalf("events not in canonical (stage, call) order: %v", fired)
	}
}

func TestTruncateDEFDeterministic(t *testing.T) {
	input := []byte("DESIGN chaos ;\nDIEAREA ( 0 0 ) ( 10 10 ) ;\nEND DESIGN\n")
	a := TruncateDEF(input, 0.5)
	b := TruncateDEF(input, 0.5)
	if !bytes.Equal(a, b) {
		t.Fatal("truncation must be deterministic")
	}
	if len(a) != len(input)/2 {
		t.Fatalf("len = %d, want %d", len(a), len(input)/2)
	}
	if len(TruncateDEF(input, 0)) != 0 || len(TruncateDEF(input, 1)) != len(input) {
		t.Fatal("frac clamping broken")
	}
	if len(TruncateDEF(input, -1)) != 0 || len(TruncateDEF(input, 2)) != len(input) {
		t.Fatal("out-of-range frac must clamp")
	}
	// The copy must not alias the input.
	a[0] = 'X'
	if input[0] == 'X' {
		t.Fatal("TruncateDEF must copy, not alias")
	}
}
