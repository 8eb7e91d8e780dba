package flow

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/ispd"
)

// ecoSuiteDesign generates one circuit of the scaled suite for the ECO
// differential tests.
func ecoSuiteDesign(tb testing.TB, scale float64, idx int) *db.Design {
	tb.Helper()
	d, err := ispd.Generate(ispd.Suite(scale)[idx])
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// ecoParent runs the checkpointed parent flow and returns its final view
// state (what an ECO resumes from) plus the manager directory.
func ecoParent(t *testing.T, scale float64, idx, k int) (dir string, pos []int64) {
	t.Helper()
	dir = t.TempDir()
	ck := &Checkpointing{Manager: openManager(t, dir, 0)}
	if _, err := RunCRPCheckpointed(context.Background(), ecoSuiteDesign(t, scale, idx), k, quickConfig(), ck, nil, nil); err != nil {
		t.Fatal(err)
	}
	return dir, nil
}

// parentPlaced returns a fresh copy of the circuit with the parent run's
// final placement imported from the checkpoint directory.
func parentPlaced(t *testing.T, scale float64, idx int, ckptDir string) *db.Design {
	t.Helper()
	d := ecoSuiteDesign(t, scale, idx)
	mgr := openManager(t, ckptDir, 0)
	snap, _, err := mgr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	st := snap.ViewState()
	if err := d.ImportPositions(st.Pos, st.Orient); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestECOMatchesScratch is the acceptance differential: for small deltas
// (≤1% of cells moved) against a finished parent run, the incremental
// re-run must land within the Table III reproduction tolerance of a
// from-scratch run on the edited design while doing at least 10× fewer
// candidate estimations — and must stay on the local rung, not the
// full-run fallback.
func TestECOMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow")
	}
	// Scales are chosen so the legalizer window (a fixed ~20 sites × 5 rows)
	// is a small fraction of the die: below ~1000 cells the window covers
	// most of the die and no edit is local, so the micro fixtures the other
	// suites use cannot exercise the incremental path.
	cases := []struct {
		scale float64
		idx   int
	}{
		{0.2, 0},  // crp_test1
		{0.05, 1}, // crp_test2
		{0.01, 6}, // crp_test7
	}
	const k = 3
	for _, tc := range cases {
		tc := tc
		name := ispd.Suite(tc.scale)[tc.idx].Name
		t.Run(name, func(t *testing.T) {
			ckptDir, _ := ecoParent(t, tc.scale, tc.idx, k)

			// A ≤1%-of-cells edit generated against the parent's final
			// placement, so every move targets a genuinely free site.
			placed := parentPlaced(t, tc.scale, tc.idx, ckptDir)
			moves := 3
			if max := len(placed.Cells) / 100; moves > max && max > 0 {
				moves = max
			}
			dl, err := eco.GenerateDelta(placed, moves, 1, 5)
			if err != nil {
				t.Fatal(err)
			}

			// Scratch reference: apply the edit to the parent-placed design
			// and run the full flow on it.
			scratchD := parentPlaced(t, tc.scale, tc.idx, ckptDir)
			if err := eco.ApplyToDesign(scratchD, dl); err != nil {
				t.Fatal(err)
			}
			scratch := RunCRP(context.Background(), scratchD, k, quickConfig())
			if scratch.Failed {
				t.Fatalf("scratch run failed: %v", scratch.Degradations)
			}

			// Incremental run from the parent's checkpoint.
			var def, guide bytes.Buffer
			res, err := ECOFromCheckpoint(context.Background(), ecoSuiteDesign(t, tc.scale, tc.idx),
				openManager(t, ckptDir, 0), dl, quickConfig(), ECOOptions{}, &def, &guide)
			if err != nil {
				t.Fatal(err)
			}
			if res.ECO == nil {
				t.Fatal("ECO result carries no ECOStats")
			}
			if res.ECO.FullRun {
				t.Fatalf("small delta fell back to a full run: %v", res.Degradations)
			}
			if res.ECO.DirtyCells <= 0 || res.ECO.DirtyCells >= res.ECO.TotalCells {
				t.Fatalf("dirty region covers %d of %d cells: not a local re-run",
					res.ECO.DirtyCells, res.ECO.TotalCells)
			}
			if def.Len() == 0 || guide.Len() == 0 {
				t.Fatal("ECO run wrote no outputs")
			}

			rel := func(a, b int64) float64 {
				return math.Abs(float64(a)-float64(b)) / float64(b)
			}
			if dw := rel(res.Metrics.WirelengthDBU, scratch.Metrics.WirelengthDBU); dw > 0.05 {
				t.Errorf("wirelength diverges %.2f%% from scratch (eco %d, scratch %d)",
					dw*100, res.Metrics.WirelengthDBU, scratch.Metrics.WirelengthDBU)
			}

			ecoEst := res.ECO.CandidateEstimates
			scratchEst := scratch.CRPStats.CandidateEstimates
			if ecoEst <= 0 {
				t.Fatal("ECO run recorded no candidate estimates")
			}
			if scratchEst < 10*ecoEst {
				t.Errorf("ECO did %d estimates vs %d from scratch: less than 10x saving", ecoEst, scratchEst)
			}
			t.Logf("%s: dirty %d/%d cells, %d rounds, estimates %d vs %d (%.1fx)",
				name, res.ECO.DirtyCells, res.ECO.TotalCells, res.ECO.Rounds,
				ecoEst, scratchEst, float64(scratchEst)/float64(ecoEst))
		})
	}
}

// freeAddSite finds a legal spot for a new cell of the design's first
// macro, for structural-delta tests.
func freeAddSite(t *testing.T, d *db.Design) eco.AddCell {
	t.Helper()
	m := d.Macros[0]
	siteW := d.Tech.Site.Width
	for ri := range d.Rows {
		row := &d.Rows[ri]
		span := row.Span(siteW)
		sites := d.FreeSitesIn(int32(ri), span.Lo, span.Hi, m.Width, nil)
		if len(sites) > 0 {
			return eco.AddCell{Name: "eco_new0", Macro: m.Name, X: sites[0], Y: row.Y}
		}
	}
	t.Fatal("no free site for a structural add")
	return eco.AddCell{}
}

// TestECOStructuralFallsBack covers the ladder's third rung directly: a
// structural delta (added cell) cannot ride a transaction, so RunECO must
// rebuild the design, run unscoped, and record the full-run-fallback
// degradation.
func TestECOStructuralFallsBack(t *testing.T) {
	d := design(t, 61)
	dl := &eco.Delta{Adds: []eco.AddCell{freeAddSite(t, d)}}
	var def, guide bytes.Buffer
	res, err := RunECO(context.Background(), d, nil, dl, quickConfig(), ECOOptions{}, &def, &guide)
	if err != nil {
		t.Fatal(err)
	}
	if res.ECO == nil || !res.ECO.FullRun {
		t.Fatalf("structural delta did not take the full-run rung: %+v", res.ECO)
	}
	if !hasKind(res, "full-run-fallback") {
		t.Fatalf("full-run fallback not recorded: %v", res.Degradations)
	}
	if res.Metrics.WirelengthDBU <= 0 {
		t.Fatalf("degenerate metrics after structural ECO: %+v", res.Metrics)
	}
	if def.Len() == 0 {
		t.Fatal("structural ECO wrote no DEF")
	}
	if !strings.Contains(def.String(), "eco_new0") {
		t.Fatal("added cell missing from the ECO output DEF")
	}
}

// TestECORejectsInvalidDeltaBeforeMutation pins the transactional-rejection
// contract: an inadmissible delta is a structured error and the design is
// left exactly as it was — no half-applied edit.
func TestECORejectsInvalidDeltaBeforeMutation(t *testing.T) {
	d := design(t, 62)
	pre, preOrient := d.ExportPositions()
	dl := &eco.Delta{Moves: []eco.CellMove{{Cell: "no_such_cell", X: 0, Y: 0}}}
	if _, err := RunECO(context.Background(), d, nil, dl, quickConfig(), ECOOptions{}, nil, nil); err == nil {
		t.Fatal("RunECO accepted a delta naming an unknown cell")
	} else if !strings.Contains(err.Error(), "no_such_cell") {
		t.Fatalf("rejection %v does not name the offending cell", err)
	}
	post, postOrient := d.ExportPositions()
	for i := range pre {
		if pre[i] != post[i] || preOrient[i] != postOrient[i] {
			t.Fatalf("cell %d mutated by a rejected delta", i)
		}
	}
}

// ecoRun executes one full RunECO on a fresh fixture and returns its output
// bytes; cancelAtIter > 0 cancels the run from the PostUD hook of that CR&P
// iteration, simulating a crash mid-ECO.
func ecoRun(t *testing.T, seed int64, dl *eco.Delta, cancelAtIter int) (defB, guideB []byte, res *Result, err error) {
	t.Helper()
	d := design(t, seed)
	cfg := quickConfig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAtIter > 0 {
		cfg.CRP.Hooks.PostUD = func(iter int) {
			if iter >= cancelAtIter {
				cancel()
			}
		}
	}
	var def, guide bytes.Buffer
	res, err = RunECO(ctx, d, nil, dl, cfg, ECOOptions{}, &def, &guide)
	return def.Bytes(), guide.Bytes(), res, err
}

// TestECOCrashRerunByteIdentical is the eco-chaos core: ECO re-runs keep no
// checkpoints because they are deterministic — a run killed anywhere simply
// reruns from the parent state and must produce byte-identical outputs to a
// never-interrupted run.
func TestECOCrashRerunByteIdentical(t *testing.T) {
	const seed = 63
	dl, err := eco.GenerateDelta(design(t, seed), 6, 1, 9)
	if err != nil {
		t.Fatal(err)
	}

	wantDEF, wantGuide, ref, err := ecoRun(t, seed, dl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ECO == nil || ref.ECO.FullRun {
		t.Fatalf("reference ECO run not incremental: %+v", ref.ECO)
	}

	// Crash mid-run at every early iteration boundary, then rerun clean.
	for iter := 1; iter <= 2; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("crash-at-iter%d", iter), func(t *testing.T) {
			// The interrupted attempt's partial result is discarded, exactly
			// as the service discards a preempted attempt's outputs.
			_, _, _, _ = ecoRun(t, seed, dl, iter)

			gotDEF, gotGuide, res, err := ecoRun(t, seed, dl, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("rerun failed: %v", res.Degradations)
			}
			if !bytes.Equal(wantDEF, gotDEF) || !bytes.Equal(wantGuide, gotGuide) {
				t.Fatal("rerun after mid-ECO crash diverged from the uninterrupted run")
			}
		})
	}
}

// TestECODeterministic pins the property the service cache key relies on:
// two RunECO invocations with identical inputs produce identical bytes and
// identical work accounting.
func TestECODeterministic(t *testing.T) {
	dl, err := eco.GenerateDelta(design(t, 64), 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defA, guideA, resA, err := ecoRun(t, 64, dl, 0)
	if err != nil {
		t.Fatal(err)
	}
	defB, guideB, resB, err := ecoRun(t, 64, dl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(defA, defB) || !bytes.Equal(guideA, guideB) {
		t.Fatal("identical ECO inputs produced different outputs")
	}
	if resA.ECO.CandidateEstimates != resB.ECO.CandidateEstimates ||
		resA.ECO.Rounds != resB.ECO.Rounds {
		t.Fatalf("work accounting diverged: %+v vs %+v", resA.ECO, resB.ECO)
	}
}

// TestECOFromTornCheckpointReportsRecovery: when the parent's newest
// snapshot is torn, ECOFromCheckpoint starts from the one before it, and
// says so with the "checkpoint-recovery" degradation Resume reports.
func TestECOFromTornCheckpointReportsRecovery(t *testing.T) {
	cfg := quickConfig()
	dir := t.TempDir()
	runToBytes(t, design(t, 65), 2, cfg, &Checkpointing{Manager: openManager(t, dir, 0)})
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(files) < 2 {
		t.Fatalf("checkpoint files = %v (err %v)", files, err)
	}
	newest := slices.Max(files)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	dl, err := eco.GenerateDelta(design(t, 65), 0, 1, 3) // one rewire, no moves
	if err != nil {
		t.Fatal(err)
	}
	res, err := ECOFromCheckpoint(context.Background(), design(t, 65), openManager(t, dir, 0), dl, cfg, ECOOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recovered []Degradation
	for _, d := range res.Degradations {
		if d.Stage == "ckpt" && d.Kind == "checkpoint-recovery" {
			recovered = append(recovered, d)
		}
	}
	if len(recovered) != 1 || !strings.Contains(recovered[0].Detail, filepath.Base(newest)) {
		t.Fatalf("degradations = %v, want one checkpoint-recovery naming %s", res.Degradations, filepath.Base(newest))
	}
}
