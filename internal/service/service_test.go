package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
)

// The service suite validates the daemon contract end to end: a job's
// outputs are a pure function of its spec — byte-identical whether the run
// was uninterrupted, preempted and resumed on another worker slot, or
// carried across a daemon restart — and overload is always explicit
// (structured rejections, never unbounded growth or silent starvation).

// synthSpec is the standard small job: deterministic synthetic design,
// k CR&P iterations.
func synthSpec(seed int64, k int) Spec {
	return Spec{
		Synthetic: &ispd.Spec{
			Name: "svc_fixture", Node: "n45", Cells: 160, Nets: 130,
			Utilisation: 0.85, Hotspots: 2, IOFraction: 0.03, Seed: seed,
		},
		K: k, Seed: seed,
	}
}

// referenceOutputs runs the job's exact flow configuration uninterrupted,
// outside the service — the byte-identity oracle.
func referenceOutputs(t *testing.T, sp Spec) (defB, guideB []byte) {
	t.Helper()
	d, err := sp.Design()
	if err != nil {
		t.Fatal(err)
	}
	var def, guide bytes.Buffer
	if _, err := flow.RunCRPCheckpointed(context.Background(), d, 0, sp.FlowConfig(), nil, &def, &guide); err != nil {
		t.Fatal(err)
	}
	return def.Bytes(), guide.Bytes()
}

// newService starts a daemon for the test and drains it on cleanup.
func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	return svc
}

// waitStatus waits until a job's status satisfies pred, re-checking on
// every wake of the job's event hub, which each in-process publish and
// state transition pings. A job that reaches a terminal state where pred
// does not hold fails the test at once: it can change no further.
func waitStatus(t *testing.T, svc *Service, id string, pred func(Status) bool) Status {
	t.Helper()
	j, err := svc.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	ping := j.hub.subscribe()
	defer j.hub.unsubscribe(ping)
	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s ended %s (%s) without reaching the awaited status", id, st.State, st.Error)
		}
		// A child worker process journals its progress, and a peer node
		// records its transitions, without pinging this process's hub
		// (handleEvents ticks for the same reason): such a job is
		// re-checked on a short tick as well.
		var tick <-chan time.Time
		j.mu.Lock()
		outside := j.remote || st.WorkerPID > 0
		j.mu.Unlock()
		if outside {
			tick = time.After(5 * time.Millisecond)
		}
		select {
		case <-ping:
		case <-tick:
		case <-deadline.C:
			t.Fatalf("timed out waiting on job %s; last status %+v", id, st)
		}
	}
}

func isState(s State) func(Status) bool {
	return func(st Status) bool { return st.State == s }
}

// jobOutputs reads a done job's committed outputs.
func jobOutputs(t *testing.T, svc *Service, id string) (defB, guideB []byte) {
	t.Helper()
	j, err := svc.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	defB, err = os.ReadFile(filepath.Join(j.Dir, "out.def"))
	if err != nil {
		t.Fatal(err)
	}
	guideB, err = os.ReadFile(filepath.Join(j.Dir, "out.guide"))
	if err != nil {
		t.Fatal(err)
	}
	return defB, guideB
}

// holder blocks one job's first attempt at its second checkpoint commit —
// the boundary after CR&P iteration 1 — until released, pinning the job
// deterministically in the running state with one iteration on record.
// Tests must `defer h.Release()` so a held job cannot deadlock the
// cleanup-time drain.
type holder struct {
	target  string
	entered chan struct{}
	release chan struct{}
	enter   sync.Once
	rel     sync.Once
}

func newHolder(target string) *holder {
	return &holder{target: target,
		entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *holder) Release() { h.rel.Do(func() { close(h.release) }) }

func (h *holder) instrument(jobID string, attempt int, _ *flow.Config, ck *flow.Checkpointing) {
	if jobID != h.target || attempt != 1 {
		return
	}
	orig := ck.AfterSave
	ck.AfterSave = func(n int) {
		// AfterSave counts saves: n==1 is the post-GR checkpoint (iter 0),
		// n==2 the checkpoint after iteration 1.
		if n == 2 {
			h.enter.Do(func() { close(h.entered) })
			<-h.release
		}
		if orig != nil {
			orig(n)
		}
	}
}

func (h *holder) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(120 * time.Second):
		t.Fatal("job never reached the held checkpoint boundary")
	}
}

// TestDaemonEndToEnd drives the full HTTP surface: submit, poll status,
// stream events, fetch outputs — and the outputs must be byte-identical to
// running the same spec directly through the flow.
func TestDaemonEndToEnd(t *testing.T) {
	svc := newService(t, Config{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sp := synthSpec(7, 2)
	body, _ := json.Marshal(sp)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submit returned %+v", st)
	}

	// Follow the live event stream to the job's terminal event; the state
	// flips before that event is published, so one status read after it
	// sees the terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	terminal := ""
	for sc := bufio.NewScanner(live.Body); terminal == "" && sc.Scan(); {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Bytes(), err)
		}
		switch e.Kind {
		case "done", "failed", "cancelled", "retries_exhausted":
			terminal = e.Kind
		}
	}
	live.Body.Close()
	if terminal == "" {
		t.Fatalf("event stream of %s ended without a terminal event", st.ID)
	}
	r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	st = Status{}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Attempts != 1 || st.Iter != 2 || st.K != 2 {
		t.Errorf("done status = %+v, want attempts 1, iter 2/2", st)
	}
	if st.Metrics == nil || st.Metrics.WirelengthDBU <= 0 {
		t.Errorf("done status carries no metrics: %+v", st.Metrics)
	}

	// The event stream of a finished job is its complete journal.
	r, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	raw, err := readAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	iters := 0
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		kinds = append(kinds, e.Kind)
		if e.Kind == "iteration" {
			iters++
			if e.Iter != iters || e.K != 2 {
				t.Errorf("iteration event out of order: %+v (want iter %d of 2)", e, iters)
			}
		}
	}
	want := []string{"submitted", "attempt", "gr", "iteration", "iteration", "done"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}

	// Outputs over HTTP match an uninterrupted direct flow run.
	wantDef, wantGuide := referenceOutputs(t, sp)
	for path, want := range map[string][]byte{"/def": wantDef, "/guide": wantGuide} {
		r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("GET %s: status %d, bytes equal=%v", path, r.StatusCode, bytes.Equal(got, want))
		}
	}

	// Health and stats round out the surface.
	r, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stats.Workers != 2 || stats.Goroutines <= 0 || stats.States[StateDone] != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func readAll(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// TestSubmitValidation covers the admission-time spec checks.
func TestSubmitValidation(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	for _, sp := range []Spec{
		{},                               // no design at all
		{LEF: "lef only"},                // half an inline design
		{Synthetic: &ispd.Spec{}, K: -1}, // bad k
	} {
		_, err := svc.Submit(sp)
		var api *APIError
		if !errors.As(err, &api) || api.Code != "bad_spec" {
			t.Errorf("Submit(%+v) error = %v, want bad_spec", sp, err)
		}
	}
	if _, err := svc.Status("j999999"); err == nil {
		t.Error("Status of unknown job must fail")
	}
}

// TestSubmitRejectsUnknownFields checks that POST /v1/jobs decodes
// strictly: a key the spec does not define, at the top level or inside the
// synthetic design, is a 400 bad_spec naming the key instead of a run with
// a defaulted parameter. The README's example body must still be admitted.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	post := func(body string) (int, APIError) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var api APIError
		if resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&api); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, api
	}

	for _, tc := range []struct{ field, body string }{
		{"shard_regions", `{"synthetic":{"name":"x","cells":10,"nets":5},"shard_regions":4}`},
		{"gama", `{"synthetic":{"name":"x","cells":10,"nets":5},"gama":0.3}`},
		{"rows", `{"synthetic":{"name":"x","cells":10,"nets":5,"rows":7}}`},
	} {
		code, api := post(tc.body)
		if code != http.StatusBadRequest || api.Code != "bad_spec" {
			t.Errorf("unknown field %q: status %d code %q, want 400 bad_spec", tc.field, code, api.Code)
		}
		if !strings.Contains(api.Message, `"`+tc.field+`"`) {
			t.Errorf("unknown field %q: message %q does not name it", tc.field, api.Message)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Fatalf("rejected submissions created %d jobs", n)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)/v1/jobs -d '(\{.*?\})'`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README has no POST /v1/jobs example")
	}
	if code, api := post(string(m[1])); code != http.StatusAccepted {
		t.Fatalf("README example body: status %d (%+v), want 202", code, api)
	}
}

// TestOverloadQueueFull floods a bounded queue: every rejection is an
// explicit structured 429, the job table does not grow, and the running
// job finishes untouched with the budgets it was admitted with.
func TestOverloadQueueFull(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 1, QueueCap: 2, Instrument: hold.instrument})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	blocker, err := svc.Submit(synthSpec(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t) // blocker is running, queue is empty
	var queued []string
	for i := 0; i < 2; i++ {
		st, err := svc.Submit(synthSpec(12+int64(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}

	// Flood: 10 more submissions, all rejected with the structured error.
	for i := 0; i < 10; i++ {
		body, _ := json.Marshal(synthSpec(99, 1))
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var api APIError
		if err := json.NewDecoder(resp.Body).Decode(&api); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("flood submission %d: status %d, want 429", i, resp.StatusCode)
		}
		if api.Code != "queue_full" || api.QueueDepth != 2 || api.QueueCap != 2 {
			t.Fatalf("flood rejection = %+v", api)
		}
	}
	if n := len(svc.List()); n != 3 {
		t.Errorf("job table grew to %d under overload, want 3", n)
	}

	hold.Release()
	for _, id := range append(queued, blocker.ID) {
		st := waitStatus(t, svc, id, func(s Status) bool { return s.State.terminal() })
		if st.State != StateDone {
			t.Errorf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestTenantAdmissionCap rejects a tenant's submissions past its active cap
// while other tenants stay admissible.
func TestTenantAdmissionCap(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 1, QueueCap: 8, TenantMaxActive: 2,
		Instrument: hold.instrument})

	a := func(seed int64) Spec { sp := synthSpec(seed, 1); sp.Tenant = "acme"; return sp }
	if _, err := svc.Submit(a(21)); err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)
	if _, err := svc.Submit(a(22)); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Submit(a(23))
	var api *APIError
	if !errors.As(err, &api) || api.Code != "tenant_limit" || api.Tenant != "acme" || api.Limit != 2 {
		t.Fatalf("third acme submission error = %v, want tenant_limit", err)
	}
	// A different tenant is unaffected by acme's cap.
	other := synthSpec(24, 1)
	other.Tenant = "zeta"
	if _, err := svc.Submit(other); err != nil {
		t.Fatalf("zeta submission rejected: %v", err)
	}
	hold.Release()
}

// TestTenantRunningFairness: with a per-tenant running cap, a saturated
// tenant's queued work cannot starve another tenant — the free worker slot
// skips past it in queue order.
func TestTenantRunningFairness(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 2, QueueCap: 8, TenantMaxRunning: 1,
		Instrument: hold.instrument})

	a1 := synthSpec(31, 1)
	a1.Tenant = "acme"
	if _, err := svc.Submit(a1); err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t) // acme at its running cap
	a2 := synthSpec(32, 1)
	a2.Tenant = "acme"
	sa2, err := svc.Submit(a2)
	if err != nil {
		t.Fatal(err)
	}
	b1 := synthSpec(33, 1)
	b1.Tenant = "zeta"
	sb1, err := svc.Submit(b1)
	if err != nil {
		t.Fatal(err)
	}

	// zeta's job, submitted after acme's queued one, runs on the free slot.
	waitStatus(t, svc, sb1.ID, func(s Status) bool {
		return s.State == StateRunning || s.State.terminal()
	})
	if st, _ := svc.Status(sa2.ID); st.State != StateQueued {
		t.Errorf("second acme job is %s while first still runs, want queued", st.State)
	}

	hold.Release()
	for _, id := range []string{"j000001", sa2.ID, sb1.ID} {
		if st := waitStatus(t, svc, id, func(s Status) bool { return s.State.terminal() }); st.State != StateDone {
			t.Errorf("job %s ended %s, want done", id, st.State)
		}
	}
}

// TestPreemptResumeBitIdentical is the migration contract: preempt a
// running job at a checkpoint boundary, let it resume on a free slot, and
// the final outputs are byte-identical to an uninterrupted run. While
// preempted mid-run, the best-so-far endpoint serves the boundary state.
func TestPreemptResumeBitIdentical(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 1, Instrument: hold.instrument})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sp := synthSpec(41, 2)
	st, err := svc.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t) // running, checkpoint 1 committed

	// Best-so-far while live: rendered from the committed boundary.
	r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/def?best=1")
	if err != nil {
		t.Fatal(err)
	}
	best, err := readAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || err != nil || len(best) == 0 {
		t.Fatalf("best-so-far: status %d, %d bytes, err %v", r.StatusCode, len(best), err)
	}
	if got := r.Header.Get("X-CRP-Checkpoint-Iter"); got != "1" {
		t.Errorf("best-so-far iter header = %q, want 1", got)
	}
	// Plain fetch of a live job is an explicit conflict, not a hang.
	if r, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/def"); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("live fetch without ?best: status %d, want 409", r.StatusCode)
	}

	if err := svc.Preempt(st.ID); err != nil {
		t.Fatal(err)
	}
	hold.Release() // boundary gate fires; attempt exits ExitPreempted

	final := waitStatus(t, svc, st.ID, isState(StateDone))
	if final.Preemptions != 1 || final.Attempts != 2 {
		t.Errorf("final status = %+v, want 1 preemption over 2 attempts", final)
	}
	wantDef, wantGuide := referenceOutputs(t, sp)
	gotDef, gotGuide := jobOutputs(t, svc, st.ID)
	if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
		t.Error("preempted+resumed outputs differ from uninterrupted run")
	}
}

// TestBestSoFarOnQueuedJobCreatesNothing: the best-so-far output of a job
// with no checkpoint yet, here a queued one, is a 409 that leaves the job's
// directory as it was: the read path creates no checkpoint directory in a
// job directory it does not own.
func TestBestSoFarOnQueuedJobCreatesNothing(t *testing.T) {
	h := newHolder("j000001")
	svc := newService(t, Config{Workers: 1, QueueCap: 4, Instrument: h.instrument})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if _, err := svc.Submit(synthSpec(43, 2)); err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.waitEntered(t)
	queued, err := svc.Submit(synthSpec(44, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := svcJobDir(t, svc, queued.ID)
	listing := func() []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		return names
	}
	before := listing()
	r, err := http.Get(srv.URL + "/v1/jobs/" + queued.ID + "/def?best=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("best-so-far of a queued job: HTTP %d, want 409", r.StatusCode)
	}
	if after := listing(); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("job directory went from %v to %v", before, after)
	}
}

// TestCancel covers both cancellation paths and their terminal conflicts.
func TestCancel(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 1, Instrument: hold.instrument})

	run, err := svc.Submit(synthSpec(51, 2))
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)
	qd, err := svc.Submit(synthSpec(52, 1))
	if err != nil {
		t.Fatal(err)
	}

	// A queued job cancels in place, before ever running.
	if err := svc.Cancel(qd.ID); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, svc, qd.ID, isState(StateCancelled))
	if st.Attempts != 0 {
		t.Errorf("cancelled queued job ran %d attempts", st.Attempts)
	}

	// A running job stops at its next checkpoint boundary.
	if err := svc.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	hold.Release()
	waitStatus(t, svc, run.ID, isState(StateCancelled))

	// Cancelling a terminal job is a conflict, not a silent no-op.
	var api *APIError
	if err := svc.Cancel(run.ID); !errors.As(err, &api) || api.Code != "conflict" {
		t.Errorf("cancel of cancelled job = %v, want conflict", err)
	}
}

// TestDrainRestartRecovery is the daemon-restart story: drain checkpoints
// the in-flight job and persists the queue; a fresh daemon on the same data
// directory resumes everything to completion, byte-identical.
func TestDrainRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	hold := newHolder("j000001")
	defer hold.Release()
	svc1, err := New(Config{DataDir: dataDir, Workers: 1,
		RetryBackoff: 10 * time.Millisecond, Instrument: hold.instrument})
	if err != nil {
		t.Fatal(err)
	}

	spRun := synthSpec(61, 2)
	spQueued := synthSpec(62, 1)
	run, err := svc1.Submit(spRun)
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)
	qd, err := svc1.Submit(spQueued)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- svc1.Drain(ctx)
	}()
	hold.Release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// Submissions after drain are explicitly refused.
	var api *APIError
	if _, err := svc1.Submit(synthSpec(63, 1)); !errors.As(err, &api) || api.Code != "draining" {
		t.Fatalf("post-drain submit = %v, want draining", err)
	}
	// The in-flight job was checkpointed and requeued, not lost.
	st, err := svc1.Status(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Preemptions != 1 {
		t.Fatalf("drained running job = %+v, want queued with 1 preemption", st)
	}
	if _, err := os.Stat(filepath.Join(dataDir, run.ID, "ckpt", "MANIFEST")); err != nil {
		t.Fatalf("drained job has no checkpoint manifest: %v", err)
	}

	// Second daemon, same data directory: both jobs complete.
	svc2 := newService(t, Config{DataDir: dataDir, Workers: 2})
	for id, sp := range map[string]Spec{run.ID: spRun, qd.ID: spQueued} {
		fin := waitStatus(t, svc2, id, func(s Status) bool { return s.State.terminal() })
		if fin.State != StateDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, fin.State, fin.Error)
		}
		wantDef, wantGuide := referenceOutputs(t, sp)
		gotDef, gotGuide := jobOutputs(t, svc2, id)
		if !bytes.Equal(gotDef, wantDef) || !bytes.Equal(gotGuide, wantGuide) {
			t.Errorf("job %s outputs differ from uninterrupted run after restart", id)
		}
	}
	// The ID sequence continues where the first daemon stopped.
	st3, err := svc2.Submit(synthSpec(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != "j000003" {
		t.Errorf("post-recovery ID = %s, want j000003", st3.ID)
	}
	if fmt.Sprint(svc2.Stats().Draining) != "false" {
		t.Error("recovered daemon reports draining")
	}
}

// TestTerminalEventSeesTerminalStatus: a client that reads a job's status
// on the job's terminal event from /v1/jobs/{id}/events reads a terminal
// state. CacheMaxEntries 1 makes every completion evict a cache entry
// before the transition, which widens any window between the two.
func TestTerminalEventSeesTerminalStatus(t *testing.T) {
	svc := newService(t, Config{Workers: 2, CacheMaxEntries: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for i := 0; i < 20; i++ {
		sub, err := svc.Submit(synthSpec(500+int64(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var ev Event
		for sc := bufio.NewScanner(r.Body); sc.Scan(); {
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			if State(ev.Kind).terminal() {
				break
			}
		}
		st, err := svc.Status(sub.ID)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !State(ev.Kind).terminal() {
			t.Fatalf("job %s: the event stream ended on %q, not a terminal event", sub.ID, ev.Kind)
		}
		if st.State != State(ev.Kind) {
			t.Errorf("job %s: status reads %s on its %s event", sub.ID, st.State, ev.Kind)
		}
	}
}

// TestPreemptRequeuedPrecedesNextAttempt: a preempted job journals its
// requeued event before the attempt that resumes it, even with an idle
// worker waiting to claim it.
func TestPreemptRequeuedPrecedesNextAttempt(t *testing.T) {
	hold := newHolder("j000001")
	defer hold.Release()
	svc := newService(t, Config{Workers: 2, Instrument: hold.instrument})

	sub, err := svc.Submit(synthSpec(42, 2))
	if err != nil {
		t.Fatal(err)
	}
	hold.waitEntered(t)
	if err := svc.Preempt(sub.ID); err != nil {
		t.Fatal(err)
	}
	hold.Release()
	waitStatus(t, svc, sub.ID, isState(StateDone))

	evs, err := decodeJournal(svcJobDir(t, svc, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range evs {
		switch e.Kind {
		case "attempt", "preempted", "requeued", "done":
			kinds = append(kinds, e.Kind)
		}
	}
	if got, want := strings.Join(kinds, ","), "attempt,preempted,requeued,attempt,done"; got != want {
		t.Errorf("lifecycle events = %s, want %s", got, want)
	}
}
