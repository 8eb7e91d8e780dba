package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/crp-eda/crp/internal/eco"
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
