package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
)

// writeJobDir makes a job directory holding only spec.json, as admission
// leaves it.
func writeJobDir(b *testing.B, dir string, sp Spec) {
	b.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), data, 0o666); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkECOJob times one ECO job attempt as a worker runs it: load the
// spec, prepare the base from the finished parent's directory, run the
// incremental flow and commit the outputs. The parent is crpd_mix's:
// crp_test7 at scale 0.01, k=10, one worker; the delta moves one cell and
// rewires one net, crpd_mix's smallest ECO edit.
func BenchmarkECOJob(b *testing.B) {
	dataDir := b.TempDir()
	circuit := ispd.Suite(0.01)[6]
	circuit.Seed = 1
	parentDir := filepath.Join(dataDir, "parent")
	writeJobDir(b, parentDir, Spec{Synthetic: &circuit, K: 10, Seed: 1, Workers: 1})
	quiet := func(Event) {}
	if code := runFlowAttempt(context.Background(), attemptEnv{dir: parentDir, attempt: 1, publish: quiet}); code != 0 {
		b.Fatalf("parent attempt exited %d", code)
	}

	t, macros, err := ispd.Library(circuit)
	if err != nil {
		b.Fatal(err)
	}
	defB, err := os.ReadFile(filepath.Join(parentDir, "out.def"))
	if err != nil {
		b.Fatal(err)
	}
	placed, err := lefdef.ParseDEF(bytes.NewReader(defB), t, macros)
	if err != nil {
		b.Fatal(err)
	}
	dl, err := eco.GenerateDelta(placed, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	canon, err := dl.Canonical()
	if err != nil {
		b.Fatal(err)
	}
	ecoDir := filepath.Join(dataDir, "eco")
	writeJobDir(b, ecoDir, Spec{ParentJob: "parent", ECODelta: canon, K: 10, Seed: 1, Workers: 1})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := runFlowAttempt(context.Background(), attemptEnv{dir: ecoDir, attempt: 1, publish: quiet}); code != 0 {
			b.Fatalf("ECO attempt exited %d", code)
		}
	}
}
