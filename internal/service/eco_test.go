package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
)

// The ECO service tests pin the incremental job kind end to end: an ECO spec
// references a committed parent run, re-runs only the delta's dirty region,
// and participates in the exact-result cache under a parent-hash+delta key.

// parentDelta generates a small valid delta against a done parent job's
// committed placement (the same base prepareECO reconstructs) and returns
// its canonical encoding.
func parentDelta(t *testing.T, svc *Service, parentID string, moves, rewires int, seed int64) []byte {
	t.Helper()
	j, err := svc.store.get(parentID)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(j.Dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sp.Design()
	if err != nil {
		t.Fatal(err)
	}
	defB, err := os.ReadFile(filepath.Join(j.Dir, "out.def"))
	if err != nil {
		t.Fatal(err)
	}
	placed, err := lefdef.ParseDEF(bytes.NewReader(defB), base.Tech, base.Macros)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := eco.GenerateDelta(placed, moves, rewires, seed)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := dl.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// jobResult reads and decodes a done job's committed result.json.
func jobResult(t *testing.T, svc *Service, id string) result {
	t.Helper()
	j, err := svc.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(j.Dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestECOJobEndToEnd submits a parent run, then an ECO job referencing it,
// and checks the incremental result: committed outputs, an ECO summary that
// stayed local, and an immediate cache hit on exact resubmission.
func TestECOJobEndToEnd(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueCap: 8})

	parent, err := svc.Submit(synthSpec(71, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, parent.ID, isState(StateDone))

	ecoSpec := Spec{ParentJob: parent.ID, ECODelta: parentDelta(t, svc, parent.ID, 2, 1, 5), K: 2, Seed: 71}
	st, err := svc.Submit(ecoSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, st.ID, isState(StateDone))

	defB, guideB := jobOutputs(t, svc, st.ID)
	if len(defB) == 0 || len(guideB) == 0 {
		t.Fatal("ECO job committed empty outputs")
	}
	res := jobResult(t, svc, st.ID)
	if res.ECO == nil {
		t.Fatal("ECO job result has no eco summary")
	}
	if res.ECO.FullRun {
		t.Fatal("small ECO delta fell back to a full run")
	}
	if res.ECO.DirtyCells <= 0 || res.ECO.DirtyCells >= res.ECO.TotalCells {
		t.Fatalf("dirty region %d/%d cells is not a local re-run", res.ECO.DirtyCells, res.ECO.TotalCells)
	}
	if res.ECO.CandidateEstimates <= 0 {
		t.Fatal("ECO summary reports no pricing work")
	}

	// Exact resubmission is a cache hit: done immediately, no new attempt.
	hits0 := svc.Stats().CacheHits
	st2, err := svc.Submit(ecoSpec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, svc, st2.ID, isState(StateDone))
	if fin.Attempts != 0 {
		t.Fatalf("cached ECO resubmit ran %d attempts, want 0", fin.Attempts)
	}
	if hits := svc.Stats().CacheHits; hits != hits0+1 {
		t.Fatalf("cache hits %d, want %d", hits, hits0+1)
	}
	defC, guideC := jobOutputs(t, svc, st2.ID)
	if !bytes.Equal(defB, defC) || !bytes.Equal(guideB, guideC) {
		t.Fatal("cached ECO outputs differ from the original run")
	}
}

// TestECOSubmitRejections drives every inadmissible ECO submission through
// the admission ladder and checks the structured rejection code.
func TestECOSubmitRejections(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueCap: 8})

	parent, err := svc.Submit(synthSpec(72, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, parent.ID, isState(StateDone))
	delta := parentDelta(t, svc, parent.ID, 1, 0, 3)

	// A cache-served copy of the parent is an admissible parent; the ECO
	// job it parents is not.
	served, err := svc.Submit(synthSpec(72, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, served.ID, isState(StateDone))
	child, err := svc.Submit(Spec{ParentJob: served.ID, ECODelta: delta, K: 1})
	if err != nil {
		t.Fatalf("ECO against a cache-served parent: %v", err)
	}
	waitStatus(t, svc, child.ID, isState(StateDone))

	cases := []struct {
		name string
		sp   Spec
		code string
	}{
		{"unknown parent", Spec{ParentJob: "no-such-job", ECODelta: delta, K: 1}, "bad_spec"},
		{"parent outside the store", Spec{ParentJob: "../other/j000001", ECODelta: delta, K: 1}, "invalid_spec"},
		{"eco parent", Spec{ParentJob: child.ID, ECODelta: delta, K: 1}, "bad_spec"},
		{"malformed delta", Spec{ParentJob: parent.ID, ECODelta: json.RawMessage(`{"moves":[`), K: 1}, "invalid_spec"},
		{"unknown delta field", Spec{ParentJob: parent.ID, ECODelta: json.RawMessage(`{"bogus":1}`), K: 1}, "invalid_spec"},
		{"delta plus synthetic", func() Spec {
			sp := synthSpec(73, 1)
			sp.ParentJob, sp.ECODelta = parent.ID, delta
			return sp
		}(), "bad_spec"},
		{"parent without delta", Spec{ParentJob: parent.ID, K: 1}, "bad_spec"},
		{"delta without parent", Spec{ECODelta: delta, K: 1}, "bad_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Submit(tc.sp)
			var api *APIError
			if !errors.As(err, &api) {
				t.Fatalf("submit returned %v, want *APIError", err)
			}
			if api.Code != tc.code {
				t.Fatalf("rejection code %q, want %q (%v)", api.Code, tc.code, api)
			}
		})
	}
}

// TestECORejectsUnfinishedParent pins the conflict path: an ECO job may only
// reference a parent whose outputs are committed.
func TestECORejectsUnfinishedParent(t *testing.T) {
	// Job IDs are sequential: the held blocker is the second submission.
	h := newHolder("j000002")
	svc := newService(t, Config{Workers: 1, QueueCap: 4, Instrument: h.instrument})

	done, err := svc.Submit(synthSpec(74, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, done.ID, isState(StateDone))
	delta := parentDelta(t, svc, done.ID, 1, 0, 3)

	blocker, err := svc.Submit(synthSpec(75, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.waitEntered(t)

	queued, err := svc.Submit(synthSpec(76, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(Spec{ParentJob: queued.ID, ECODelta: delta, K: 1})
	var api *APIError
	if !errors.As(err, &api) || api.Code != "conflict" {
		t.Fatalf("ECO against a queued parent returned %v, want conflict", err)
	}
	_, err = svc.Submit(Spec{ParentJob: blocker.ID, ECODelta: delta, K: 1})
	if !errors.As(err, &api) || api.Code != "conflict" {
		t.Fatalf("ECO against a running parent returned %v, want conflict", err)
	}
}

// TestResultCacheEviction pins the LRU bounds: with CacheMaxEntries=1 the
// older entry is evicted when a second distinct job commits, and the
// eviction is visible in stats.
func TestResultCacheEviction(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueCap: 4, CacheMaxEntries: 1})

	first, err := svc.Submit(synthSpec(77, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, first.ID, isState(StateDone))
	second, err := svc.Submit(synthSpec(78, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, second.ID, isState(StateDone))

	if ev := svc.Stats().CacheEvictions; ev < 1 {
		t.Fatalf("cache evictions = %d, want >= 1", ev)
	}
	ents, err := os.ReadDir(svc.store.cacheRoot)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, e := range ents {
		if e.IsDir() && e.Name()[0] != '.' {
			live++
		}
	}
	if live > 1 {
		t.Fatalf("cache holds %d entries, want <= 1", live)
	}

	// The surviving entry is the newer job: resubmitting it hits, while the
	// evicted spec misses and runs again.
	hits0, miss0 := svc.Stats().CacheHits, svc.Stats().CacheMisses
	re, err := svc.Submit(synthSpec(78, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitStatus(t, svc, re.ID, isState(StateDone)); fin.Attempts != 0 {
		t.Fatalf("resubmit of cached job ran %d attempts, want 0", fin.Attempts)
	}
	if hits := svc.Stats().CacheHits; hits != hits0+1 {
		t.Fatalf("cache hits %d, want %d", hits, hits0+1)
	}
	old, err := svc.Submit(synthSpec(77, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, old.ID, isState(StateDone))
	if miss := svc.Stats().CacheMisses; miss <= miss0 {
		t.Fatalf("cache misses %d did not grow past %d for the evicted spec", miss, miss0)
	}
}

// ecoReference runs the checkpoint ECO path on an ECO spec's inputs outside
// the service, as cmd/crp -eco-from does: the parent's own design
// (Spec.Design), the parent job's checkpoint directory, the same delta and
// the same configuration.
func ecoReference(t *testing.T, svc *Service, sp Spec) (defB, guideB []byte) {
	t.Helper()
	dir := svcJobDir(t, svc, sp.ParentJob)
	parent, err := loadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := parent.Design()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := eco.Parse(sp.ECODelta)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := checkpoint.Open(filepath.Join(dir, "ckpt"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var def, guide bytes.Buffer
	if _, err := flow.ECOFromCheckpoint(context.Background(), d, mgr, delta, sp.FlowConfig(), flow.ECOOptions{}, &def, &guide); err != nil {
		t.Fatal(err)
	}
	return def.Bytes(), guide.Bytes()
}

// inlineSpec is a job submitted as LEF/DEF text: circuit spec's design,
// written out.
func inlineSpec(t *testing.T, circuit ispd.Spec, k int) Spec {
	t.Helper()
	d, err := ispd.Generate(circuit)
	if err != nil {
		t.Fatal(err)
	}
	var lef, def bytes.Buffer
	if err := lefdef.WriteLEF(&lef, d.Tech, d.Macros); err != nil {
		t.Fatal(err)
	}
	if err := lefdef.WriteDEF(&def, d); err != nil {
		t.Fatal(err)
	}
	return Spec{LEF: lef.String(), DEF: def.String(), K: k, Seed: circuit.Seed}
}

// TestECOMatchesCheckpointReference is the service ECO differential: an ECO
// job's out.def and out.guide are byte-equal to flow.ECOFromCheckpoint on
// the same inputs, for 1-, 4- and 16-move deltas against a synthetic parent
// that ran, a parent served from the result cache, and an inline LEF/DEF
// parent.
func TestECOMatchesCheckpointReference(t *testing.T) {
	svc := newService(t, Config{Workers: 2, QueueCap: 16})
	circuit := ispd.Suite(0.004)[6]
	circuit.Seed = 61
	synth := Spec{Synthetic: &circuit, K: 2, Seed: 61}
	inlineCircuit := ispd.Suite(0.004)[3]
	inlineCircuit.Seed = 62

	submitDone := func(sp Spec) Status {
		t.Helper()
		st, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return waitStatus(t, svc, st.ID, isState(StateDone))
	}
	ran := submitDone(synth)
	served := submitDone(synth)
	if served.Attempts != 0 {
		t.Fatalf("resubmitted parent ran %d attempts, want a cache hit", served.Attempts)
	}
	inline := submitDone(inlineSpec(t, inlineCircuit, 2))

	for pi, parent := range []struct{ name, id string }{
		{"ran", ran.ID}, {"cache-served", served.ID}, {"inline", inline.ID},
	} {
		for _, moves := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%d-moves", parent.name, moves), func(t *testing.T) {
				// A seed per parent keeps the ECO jobs distinct, so each
				// one runs instead of hitting its sibling's cache entry.
				sp := Spec{ParentJob: parent.id, K: 2, Seed: 61,
					ECODelta: parentDelta(t, svc, parent.id, moves, 1, int64(100*pi+moves))}
				st := submitDone(sp)
				if st.Attempts < 1 {
					t.Fatalf("ECO job ran %d attempts, want a run", st.Attempts)
				}
				gotDef, gotGuide := jobOutputs(t, svc, st.ID)
				wantDef, wantGuide := ecoReference(t, svc, sp)
				if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
					t.Errorf("service ECO outputs differ from ECOFromCheckpoint (def equal %v, guide equal %v)",
						bytes.Equal(gotDef, wantDef), bytes.Equal(gotGuide, wantGuide))
				}
				if parentDef, _ := jobOutputs(t, svc, parent.id); bytes.Equal(gotDef, parentDef) {
					t.Error("ECO job's out.def equals its parent's: the delta was not applied")
				}
			})
		}
	}
}

// newestCheckpointFile returns the highest-numbered snapshot file of a
// checkpoint directory.
func newestCheckpointFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files in %s (%v)", dir, err)
	}
	newest, best := "", -1
	for _, f := range files {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(f), "ckpt-%d.bin", &n); err == nil && n > best {
			newest, best = f, n
		}
	}
	return newest
}

// TestECOStaleParentBaseFails pins the base check: an ECO job whose parent's
// newest checkpoint is not the state its out.def was written from fails
// with the named eco-base-stale fault on every attempt, and commits
// nothing, instead of running from whatever checkpoint is left.
func TestECOStaleParentBaseFails(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueCap: 8})
	cases := []struct {
		name  string
		spoil func(t *testing.T, parentDir string)
	}{
		{"newest checkpoint torn", func(t *testing.T, parentDir string) {
			ckpt := filepath.Join(parentDir, "ckpt")
			newest := newestCheckpointFile(t, ckpt)
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest, data[:len(data)/2], 0o666); err != nil {
				t.Fatal(err)
			}
			// An older snapshot is still there to fall back to.
			snap, notes, err := checkpoint.OpenReadOnly(ckpt).Latest()
			if err != nil || snap.Iter != snap.K-1 || len(notes) == 0 {
				t.Fatalf("torn newest checkpoint: fallback %+v, notes %v, err %v; want the previous iteration", snap, notes, err)
			}
		}},
		{"no checkpoint", func(t *testing.T, parentDir string) {
			if err := os.RemoveAll(filepath.Join(parentDir, "ckpt")); err != nil {
				t.Fatal(err)
			}
		}},
		{"placement not out.def's", func(t *testing.T, parentDir string) {
			sp, err := loadSpec(parentDir)
			if err != nil {
				t.Fatal(err)
			}
			d, err := sp.Design() // the placement before CR&P moved cells
			if err != nil {
				t.Fatal(err)
			}
			var def bytes.Buffer
			if err := lefdef.WriteDEF(&def, d); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(parentDir, "out.def"), def.Bytes(), 0o666); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := svc.Submit(synthSpec(int64(90+i), 2))
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, svc, parent.ID, isState(StateDone))
			if res := jobResult(t, svc, parent.ID); res.TotalMoved == 0 {
				t.Fatal("parent moved no cell; its out.def placement is its input's")
			}
			delta := parentDelta(t, svc, parent.ID, 1, 0, 7)
			tc.spoil(t, svcJobDir(t, svc, parent.ID))

			child, err := svc.Submit(Spec{ParentJob: parent.ID, ECODelta: delta, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			fin := waitStatus(t, svc, child.ID, func(s Status) bool { return s.State.terminal() })
			if fin.State != StateFailed {
				t.Fatalf("ECO from a stale base ended %s, want failed", fin.State)
			}
			dir := svcJobDir(t, svc, child.ID)
			if n := countFaults(t, dir, "eco-base-stale"); n != fin.Attempts {
				t.Errorf("%d eco-base-stale faults for %d attempts", n, fin.Attempts)
			}
			if _, err := os.Stat(filepath.Join(dir, "out.def")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("ECO from a stale base committed out.def (stat err %v)", err)
			}
		})
	}
}

// countFaults counts a job journal's degradation events of one fault kind.
func countFaults(t *testing.T, dir, fault string) int {
	t.Helper()
	evs, err := decodeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range evs {
		if e.Kind == "degradation" && e.Fault == fault {
			n++
		}
	}
	return n
}

// TestECOOldKeyEntryNotServed: ECO cache keys name the base they were
// computed from, so a cache entry under the bare key — the canonical ECO
// spec hashed without ecoKeyBase, which entries computed from a re-routed
// copy of the parent's out.def were published under — is never served.
func TestECOOldKeyEntryNotServed(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueCap: 8})
	parent, err := svc.Submit(synthSpec(95, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, parent.ID, isState(StateDone))
	sp := Spec{ParentJob: parent.ID, ECODelta: parentDelta(t, svc, parent.ID, 2, 1, 9), K: 2}

	psp, err := loadSpec(svcJobDir(t, svc, parent.ID))
	if err != nil {
		t.Fatal(err)
	}
	parentHash, err := specHash(*psp)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := eco.Parse(sp.ECODelta)
	if err != nil {
		t.Fatal(err)
	}
	bare := sp
	if bare.ECODelta, err = dl.Canonical(); err != nil {
		t.Fatal(err)
	}
	bare.ParentJob = parentHash
	data, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := fmt.Sprintf("%x", sha256.Sum256(data))
	entry := filepath.Join(svc.store.cacheRoot, oldKey)
	if err := os.MkdirAll(entry, 0o777); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"out.def": "stale def\n", "out.guide": "stale guide\n", "result.json": `{"metrics":{"wirelength_dbu":1,"vias":1,"score":1}}`,
	} {
		if err := os.WriteFile(filepath.Join(entry, name), []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	st, err := svc.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, svc, st.ID, isState(StateDone))
	if fin.Attempts < 1 {
		t.Fatalf("ECO job ran %d attempts: the entry under the bare key was served", fin.Attempts)
	}
	if def, _ := jobOutputs(t, svc, st.ID); string(def) == "stale def\n" {
		t.Fatal("ECO job's out.def is the bare-key entry's")
	}
}
