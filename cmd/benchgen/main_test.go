package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownCircuitRejected: both modes reject a -circuit name outside the
// suite with "unknown circuit" and write nothing.
func TestUnknownCircuitRejected(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bg")
	for _, args := range [][]string{
		{"-out", out, "-circuit", "crp_test77"},
		{"-circuit", "crp_test77", "-eco-delta", filepath.Join(dir, "edit.json")},
	} {
		var stdout bytes.Buffer
		err := run(args, &stdout)
		if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
			t.Errorf("%v: err = %v, want unknown circuit", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("wrote %d entries (err %v), want none", len(entries), err)
	}
}

// TestKnownCircuitWritesOnlyThatPair: a suite name writes exactly its
// LEF/DEF pair.
func TestKnownCircuitWritesOnlyThatPair(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-out", out, "-scale", "0.004", "-circuit", "crp_test1"}, &stdout); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, ","); got != "crp_test1.def,crp_test1.lef" {
		t.Errorf("wrote %s, want crp_test1.def,crp_test1.lef", got)
	}
	if !strings.HasPrefix(stdout.String(), "crp_test1: ") {
		t.Errorf("stdout %q", stdout.String())
	}
}
