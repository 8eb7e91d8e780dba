package checkpoint_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
)

// The checkpoint micro-benchmarks time the two halves of durability on the
// snapshot a real run commits last: crp_test7 at scale 0.01 (~1.7k cells)
// after k=10 CR&P iterations, the state an ECO job reads its base from.

// TestMain removes the flow run's directory, which every benchmark shares.
func TestMain(m *testing.M) {
	code := m.Run()
	if finalRun.dir != "" {
		os.RemoveAll(finalRun.dir)
	}
	os.Exit(code)
}

var finalRun struct {
	once sync.Once
	dir  string
	snap *checkpoint.Snapshot
	err  error
}

// finalSnapshot runs the flow once per test binary and returns its
// checkpoint directory and newest snapshot.
func finalSnapshot(b *testing.B) (string, *checkpoint.Snapshot) {
	b.Helper()
	finalRun.once.Do(func() {
		d, err := ispd.Generate(ispd.Suite(0.01)[6])
		if err != nil {
			finalRun.err = err
			return
		}
		dir, err := os.MkdirTemp("", "ckpt-bench-")
		if err != nil {
			finalRun.err = err
			return
		}
		finalRun.dir = dir
		mgr, err := checkpoint.Open(dir, 0)
		if err != nil {
			finalRun.err = err
			return
		}
		ck := &flow.Checkpointing{Manager: mgr}
		if _, err := flow.RunCRPCheckpointed(context.Background(), d, 10, flow.DefaultConfig(), ck, nil, nil); err != nil {
			finalRun.err = err
			return
		}
		finalRun.snap, _, finalRun.err = mgr.Latest()
	})
	if finalRun.err != nil {
		b.Fatal(finalRun.err)
	}
	return finalRun.dir, finalRun.snap
}

// BenchmarkCheckpointSave commits the final snapshot: encode, write, fsync,
// rename, then the manifest the same way, and pruning to two retained.
func BenchmarkCheckpointSave(b *testing.B) {
	_, snap := finalSnapshot(b)
	mgr, err := checkpoint.Open(filepath.Join(b.TempDir(), "ckpt"), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointLatest loads the newest snapshot of the run's
// directory through the read path: manifest, file, CRC and decode.
func BenchmarkCheckpointLatest(b *testing.B) {
	dir, _ := finalSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checkpoint.OpenReadOnly(dir).Latest(); err != nil {
			b.Fatal(err)
		}
	}
}
