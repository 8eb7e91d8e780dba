package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/service"
)

const (
	crpdWorkers     = 2
	crpdClients     = 2
	crpdFreshScale  = 0.004
	crpdParentScale = 0.01
)

// Job kinds of the crpd_mix sequence, in fixed 2:1:1 proportions.
const (
	kindFresh  = "fresh"
	kindCached = "cached"
	kindECO    = "eco"
)

var blockKinds = []string{kindFresh, kindFresh, kindCached, kindECO}

// crpdEnv is a running in-process daemon with its finished parent job.
type crpdEnv struct {
	svc        *service.Service
	h          http.Handler
	parentID   string
	parentSpec service.Spec
	parentIn   *defDesign // the parent's input DEF, for the ECO output check
	base       *db.Design // the parent's placed output, deltas are drawn on it
	lib        *lefLib
	dbu        float64
}

func freshSpec(seed int64, i int) service.Spec {
	s := ispd.Suite(crpdFreshScale)[circuitIndex]
	s.Seed = splitmix(seed, "fresh", i)
	return service.Spec{Synthetic: &s, K: flowK, Seed: 1, Workers: 1}
}

func parentSpec(seed int64) service.Spec {
	s := ispd.Suite(crpdParentScale)[circuitIndex]
	s.Seed = splitmix(seed, "crpd-parent", 0)
	return service.Spec{Synthetic: &s, K: flowK, Seed: 1, Workers: 1}
}

// kindOf places job i in the seeded sequence: each block of four is a
// seeded permutation of fresh, fresh, cached, eco.
func kindOf(seed int64, i int) string {
	perm := rand.New(rand.NewSource(splitmix(seed, "block", i/4))).Perm(len(blockKinds))
	return blockKinds[perm[i%4]]
}

// cacheSource is the job a cached submission repeats: the first fresh job
// of the previous block, or the parent job in the first block.
func cacheSource(seed int64, i int) int {
	b := i/4 - 1
	if b < 0 {
		return -1
	}
	for k := 4 * b; k < 4*b+4; k++ {
		if kindOf(seed, k) == kindFresh {
			return k
		}
	}
	return -1
}

// ecoMoves is job i's delta size: 1 to 4 moved cells, one rewired net.
func ecoMoves(seed int64, i int) int { return 1 + int(splitmix(seed, "eco-moves", i)%4) }

// streamWriter is an http.ResponseWriter that hands the handler's chunked
// NDJSON stream to a pipe, so events are read as the handler flushes them.
type streamWriter struct {
	hdr  http.Header
	code int
	w    *io.PipeWriter
}

func (s *streamWriter) Header() http.Header         { return s.hdr }
func (s *streamWriter) WriteHeader(code int)        { s.code = code }
func (s *streamWriter) Write(b []byte) (int, error) { return s.w.Write(b) }
func (s *streamWriter) Flush()                      {}

// watch follows a job's NDJSON event stream from Service.Handler() until a
// terminal event arrives, reporting each event's kind and arrival time.
func watch(h http.Handler, id string, on func(kind string, at time.Time)) (string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	sw := &streamWriter{hdr: http.Header{}, w: pw}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil).WithContext(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(sw, req)
		pw.Close()
	}()
	defer func() {
		cancel()
		pr.Close() // unblocks a handler mid-write
		wg.Wait()
	}()
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		at := time.Now()
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("event stream: %w", err)
		}
		on(ev.Kind, at)
		switch ev.Kind {
		case "done", "failed", "cancelled", "retries_exhausted":
			return ev.Kind, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream of %s ended without a terminal event (HTTP %d)", id, sw.code)
}

// fetch reads one non-streaming endpoint of the daemon's API.
func fetch(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// settled polls Status until the job's state is terminal; the "done" event
// is journaled just before the state flips.
func settled(svc *service.Service, id string) (service.Status, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCancelled, service.StateRetriesExhausted:
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func crpdSetup(dir string, seed int64) (*crpdEnv, error) {
	svc, err := service.New(service.Config{DataDir: filepath.Join(dir, "data"), Workers: crpdWorkers, QueueCap: 16})
	if err != nil {
		return nil, err
	}
	e := &crpdEnv{svc: svc, h: svc.Handler(), parentSpec: parentSpec(seed)}
	fail := func(err error) (*crpdEnv, error) {
		crpdTeardown(e)
		return nil, err
	}
	st, err := svc.Submit(e.parentSpec)
	if err != nil {
		return fail(err)
	}
	e.parentID = st.ID
	if kind, err := watch(e.h, st.ID, func(string, time.Time) {}); err != nil || kind != "done" {
		return fail(fmt.Errorf("parent job ended %q: %v", kind, err))
	}
	if st, err = settled(svc, st.ID); err != nil || st.State != service.StateDone {
		return fail(fmt.Errorf("parent job %s: %v", st.State, err))
	}
	def, err := fetch(e.h, "/v1/jobs/"+e.parentID+"/def")
	if err != nil {
		return fail(err)
	}
	pd, err := e.parentSpec.Design()
	if err != nil {
		return fail(err)
	}
	if e.base, err = lefdef.ParseDEF(bytes.NewReader(def), pd.Tech, pd.Macros); err != nil {
		return fail(err)
	}
	var lef, in bytes.Buffer
	if err := lefdef.WriteLEF(&lef, pd.Tech, pd.Macros); err != nil {
		return fail(err)
	}
	if e.lib, err = parseLEF(lef.Bytes()); err != nil {
		return fail(err)
	}
	if err := lefdef.WriteDEF(&in, pd); err != nil {
		return fail(err)
	}
	if e.parentIn, err = parseDEF(in.Bytes()); err != nil {
		return fail(err)
	}
	e.dbu = float64(e.lib.dbu)
	return e, nil
}

func crpdTeardown(e *crpdEnv) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e.svc.Drain(ctx)
}

// crpdJob is one measured submission.
type crpdJob struct {
	i, source int
	kind      string
	id        string
	admit     time.Duration // the Submit call
	queue     time.Duration // Submit returned -> first attempt event
	run       time.Duration // first attempt event -> done event
	total     time.Duration // Submit called -> done event
	doneAt    time.Time
	status    service.Status
	err       error
}

func runCRPDMix(o opts) (*outcome, error) {
	e, setup, err := repeatSetup(o, setupRuns(o), func(dir string) (*crpdEnv, error) {
		return crpdSetup(dir, o.seed)
	}, crpdTeardown)
	if err != nil {
		return nil, err
	}
	defer crpdTeardown(e)

	h := sha256.New()
	pj, _ := json.Marshal(e.parentSpec)
	h.Write(pj)
	for i := 0; i < 64; i++ {
		fmt.Fprintf(h, "%d:%s:%d:%d:%d\n", i, kindOf(o.seed, i), freshSpec(o.seed, i).Synthetic.Seed, cacheSource(o.seed, i), ecoMoves(o.seed, i))
	}
	// Fresh jobs are generated inside the daemon; the stamp gives the
	// generator's target counts.
	fs := freshSpec(o.seed, 0).Synthetic
	out := &outcome{input: inputStamp{Circuit: "crp_test7", Scale: crpdFreshScale, Cells: fs.Cells, Nets: fs.Nets,
		K: flowK, SHA256: hex.EncodeToString(h.Sum(nil))}}

	tr := NewTracer()
	var (
		next    atomic.Int64
		mu      sync.Mutex
		jobs    = map[int]*crpdJob{}
		doneCh  = map[int]chan struct{}{}
		deltaMu sync.Mutex // eco.GenerateDelta reads the shared base design
	)
	doneOf := func(i int) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		if doneCh[i] == nil {
			doneCh[i] = make(chan struct{})
		}
		return doneCh[i]
	}
	specFor := func(i int, kind string) (service.Spec, int, error) {
		switch kind {
		case kindFresh:
			return freshSpec(o.seed, i), -1, nil
		case kindCached:
			src := cacheSource(o.seed, i)
			if src < 0 {
				return e.parentSpec, src, nil
			}
			<-doneOf(src) // the resubmission waits for its original; not timed
			mu.Lock()
			sj := jobs[src]
			mu.Unlock()
			if sj == nil || sj.err != nil {
				return service.Spec{}, src, fmt.Errorf("cached job %d: its source job %d did not finish", i, src)
			}
			return freshSpec(o.seed, src), src, nil
		default:
			deltaMu.Lock()
			dl, err := eco.GenerateDelta(e.base, ecoMoves(o.seed, i), 1, splitmix(o.seed, "eco-delta", i))
			deltaMu.Unlock()
			if err != nil {
				return service.Spec{}, -1, err
			}
			canon, err := dl.Canonical()
			return service.Spec{ParentJob: e.parentID, ECODelta: canon, K: flowK, Seed: 1, Workers: 1}, -1, err
		}
	}
	runJob := func(i int) *crpdJob {
		kind := kindOf(o.seed, i)
		j := &crpdJob{i: i, kind: kind}
		spec, src, err := specFor(i, kind)
		j.source = src
		if err != nil {
			j.err = err
			return j
		}
		// Odd jobs of a traced run are traced; the rest run with a nil
		// tracer, which records nothing.
		var jt *Tracer
		if o.traced && i%2 == 1 {
			jt = tr
		}
		root := jt.Begin(-1, "job."+kind)
		defer jt.End(root)
		sp := jt.Begin(root, "service.submit")
		t0 := time.Now()
		st, err := e.svc.Submit(spec)
		j.admit = time.Since(t0)
		tSub := time.Now()
		jt.End(sp)
		if err != nil {
			j.err = fmt.Errorf("submit refused: %w", err)
			return j
		}
		j.id = st.ID
		var tAttempt time.Time
		kindEnd, err := watch(e.h, st.ID, func(k string, at time.Time) {
			switch k {
			case "attempt":
				if tAttempt.IsZero() {
					tAttempt = at
				}
			case "done":
				j.doneAt = at
			}
		})
		if err == nil && kindEnd != "done" {
			err = fmt.Errorf("job ended %s", kindEnd)
		}
		if err != nil {
			j.err = err
			return j
		}
		j.total = j.doneAt.Sub(t0)
		// The wait is observed on the event stream: queued until the first
		// attempt starts, then running until done. A cache hit has neither.
		wait := jt.Add(root, "service.wait", tSub, j.doneAt)
		if !tAttempt.IsZero() {
			jt.Add(wait, "service.queue_wait", tSub, tAttempt)
			jt.Add(wait, "service.run."+kind, tAttempt, j.doneAt)
		}
		j.status, j.err = settled(e.svc, st.ID)
		if j.err == nil && j.status.State != service.StateDone {
			j.err = fmt.Errorf("job %s ended %s: %s", st.ID, j.status.State, j.status.Error)
		}
		return j
	}

	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < crpdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				j := runJob(i)
				mu.Lock()
				jobs[i] = j
				mu.Unlock()
				close(doneOf(i))
			}
		}()
	}
	wg.Wait()
	rss := peakRSSMB() // before the outputs are fetched for checking
	return crpdReport(o, e, out, tr, jobs, setup, start, rss)
}

// crpdReport checks every job's outputs and assembles the metrics.
func crpdReport(o opts, e *crpdEnv, out *outcome, tr *Tracer, jobs map[int]*crpdJob, setup []float64, start time.Time, rss float64) (*outcome, error) {
	acc := newLayerAcc()
	lat := map[string][]float64{}
	latTraced := []float64{}
	var admitMS []float64
	var qm qorMeans
	var lastDone time.Time
	done, refused := 0, 0
	var attempts []float64
	outputs := map[int][2][]byte{}
	get := func(j *crpdJob) ([2][]byte, error) {
		if b, ok := outputs[j.i]; ok {
			return b, nil
		}
		def, err := fetch(e.h, "/v1/jobs/"+j.id+"/def")
		if err != nil {
			return [2][]byte{}, err
		}
		guide, err := fetch(e.h, "/v1/jobs/"+j.id+"/guide")
		if err != nil {
			return [2][]byte{}, err
		}
		outputs[j.i] = [2][]byte{def, guide}
		return outputs[j.i], nil
	}
	parentOut, err := get(&crpdJob{i: -1, id: e.parentID})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(jobs); i++ {
		j := jobs[i]
		out.attempted++
		if j.err != nil {
			var apiErr *service.APIError
			if errors.As(j.err, &apiErr) {
				refused++
			}
			out.fail("job %d (%s): %v", i, j.kind, j.err)
			continue
		}
		done++
		if j.doneAt.After(lastDone) {
			lastDone = j.doneAt
		}
		admitMS = append(admitMS, j.admit.Seconds()*1e3)
		if j.kind != kindCached {
			attempts = append(attempts, float64(j.status.Attempts))
		}
		if err := crpdCheck(o.seed, e, j, jobs, get, parentOut, &qm); err != nil {
			out.fail("job %d (%s) output check: %v", i, j.kind, err)
			continue
		}
		key := map[string]string{kindFresh: "fresh", kindCached: "cached", kindECO: "eco_job"}[j.kind]
		traced := o.traced && i%2 == 1
		switch {
		case j.kind == kindFresh && traced:
			latTraced = append(latTraced, j.total.Seconds())
		default:
			lat[key] = append(lat[key], j.total.Seconds())
		}
		switch j.kind {
		case kindCached:
			acc.add("service.cached_job_ms_p50", j.total.Seconds()*1e3)
		case kindECO:
			acc.add("service.eco_job_s_p50", j.total.Seconds())
		}
	}
	if len(lat["fresh"]) == 0 || lastDone.IsZero() {
		return nil, fmt.Errorf("crpd_mix: no fresh job completed (%d failed): %v", out.failed, out.failures)
	}
	jobsPerS := float64(done) / lastDone.Sub(start).Seconds()
	out.endToEnd = endToEnd(setup, lat["fresh"], jobsPerS, qm, rss)
	out.table = issueTable("crpd_mix", setup, lat, jobsPerS, admitMS, out.attempted, out.failed, qm, rss)
	if o.traced {
		acc.addSpans(tr.Spans())
		acc.add("trace_overhead_pct", overheadPct(latTraced, lat["fresh"]))
		stats := e.svc.Stats()
		acc.add("service.cache_hit_ratio", ratio(stats.CacheHits, stats.CacheHits+stats.CacheMisses))
		acc.add("service.attempts_per_job", mean(attempts))
		acc.add("service.refused", float64(refused))
		acc.notes = append(acc.notes,
			"crpd_mix: jobs run inside the daemon, so only admission (Submit), queue wait and run (from the job's event stream) are timed from outside;",
			"crpd_mix: trace_overhead_pct compares traced and untraced fresh jobs; checkpoint.save_s and view.materialize_s are measured on eco_ckpt's traced parent run.")
		out.perLayer = acc.metrics()
		out.table = append(out.table, acc.table()...)
	}
	return out, nil
}

// crpdCheck verifies one finished job: legal outputs with guides, a cached
// job's artifacts byte-identical to its original's, and QoR recorded for
// fresh jobs.
func crpdCheck(seed int64, e *crpdEnv, j *crpdJob, jobs map[int]*crpdJob, get func(*crpdJob) ([2][]byte, error), parentOut [2][]byte, qm *qorMeans) error {
	b, err := get(j)
	if err != nil {
		return err
	}
	switch j.kind {
	case kindCached:
		if j.status.Attempts != 0 {
			return fmt.Errorf("resubmission ran %d attempt(s) instead of a cache hit", j.status.Attempts)
		}
		want := parentOut
		if j.source >= 0 {
			if want, err = get(jobs[j.source]); err != nil {
				return err
			}
			if m, w := j.status.Metrics, jobs[j.source].status.Metrics; m == nil || w == nil || *m != *w {
				return errors.New("cached metrics differ from the original job's")
			}
		}
		if !bytes.Equal(b[0], want[0]) || !bytes.Equal(b[1], want[1]) {
			return errors.New("cached artifacts differ from the original job's")
		}
		return nil
	case kindECO:
		return checkOutputs(e.lib, e.parentIn, b[0], b[1])
	}
	spec := freshSpec(seed, j.i)
	d, err := spec.Design()
	if err != nil {
		return err
	}
	var in bytes.Buffer
	if err := lefdef.WriteDEF(&in, d); err != nil {
		return err
	}
	inDEF, err := parseDEF(in.Bytes())
	if err != nil {
		return err
	}
	if err := checkOutputs(e.lib, inDEF, b[0], b[1]); err != nil {
		return err
	}
	m := j.status.Metrics
	if m == nil {
		return errors.New("done job has no metrics")
	}
	// Job status carries no DRV count; the job's QoR is vias, wirelength
	// and the score (which weighs DRVs in).
	qm.vias = append(qm.vias, float64(m.Vias))
	qm.wl = append(qm.wl, float64(m.WirelengthDBU)/e.dbu)
	qm.score = append(qm.score, m.Score)
	return nil
}
