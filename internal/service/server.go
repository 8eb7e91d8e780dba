package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/flow"
)

// maxSpecBytes bounds one submission body (inline LEF/DEF text included) —
// admission control starts at the socket.
const maxSpecBytes = 64 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a Spec   → 202 Status | structured APIError
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events stream the event journal as NDJSON (chunked;
//	                            follows a live job until it reaches a
//	                            terminal state, then ends)
//	GET    /v1/jobs/{id}/def    final routed DEF; ?best=1 serves the
//	                            best-so-far snapshot of a live job
//	GET    /v1/jobs/{id}/guide  final route guide; ?best=1 as above
//	POST   /v1/jobs/{id}/preempt checkpoint-backed preemption (requeue+resume)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            service counters (cache, fencing, shed)
//	GET    /v1/nodes            daemons sharing this job store
//	GET    /healthz             liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/def", s.output("out.def", "application/def"))
	mux.HandleFunc("GET /v1/jobs/{id}/guide", s.output("out.guide", "text/plain"))
	mux.HandleFunc("POST /v1/jobs/{id}/preempt", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Preempt(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "preempting"})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		st.Goroutines = runtime.NumGoroutine()
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		nodes := s.Nodes()
		if nodes == nil {
			nodes = []NodeStatus{}
		}
		writeJSON(w, http.StatusOK, nodes)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

// handleSubmit decodes a client's spec strictly: an unknown key (a typo,
// or a field an older daemon accepted) is a bad_spec naming the key, never
// a silently defaulted parameter. Specs persisted on disk are decoded
// leniently, so a job written by an older daemon still resumes.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, errBadSpec("decoding spec: "+err.Error()))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams the job's journal as chunked NDJSON: everything
// journaled so far, then — while the job is live — new lines as the
// workers append them. The journal file is the source of truth; hub pings
// and a polling ticker only bound the latency of noticing appends (child
// worker processes append without pinging the parent).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	ping := j.hub.subscribe()
	defer j.hub.unsubscribe(ping)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()

	var off int64
	for {
		lines, next, err := readJournal(j.Dir, off)
		if err != nil {
			return
		}
		off = next
		for _, line := range lines {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		if len(lines) > 0 && fl != nil {
			fl.Flush()
		}
		// Drained the journal: stop once the job can produce no more events.
		if j.currentState().terminal() {
			if lines, _, _ := readJournal(j.Dir, off); len(lines) == 0 {
				return
			}
			continue
		}
		select {
		case <-ping:
		case <-tick.C:
		case <-r.Context().Done():
			return
		case <-s.store.drainCh:
			// Drain preempts the job; keep following until it settles.
			if j.currentState().terminal() || j.currentState() == StateQueued {
				if lines, _, _ := readJournal(j.Dir, off); len(lines) == 0 {
					return
				}
			}
		}
	}
}

// output serves a final output file of a done job, or — with ?best=1 on a
// live job — reconstructs the best-so-far output from the job's latest
// checkpoint without disturbing the running attempt.
func (s *Service) output(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := s.store.get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		state := j.currentState()
		if state == StateDone {
			w.Header().Set("Content-Type", contentType)
			http.ServeFile(w, r, filepath.Join(j.Dir, name))
			return
		}
		if r.URL.Query().Get("best") == "" {
			writeErr(w, errConflict(fmt.Sprintf("job is %s; pass ?best=1 for the best-so-far snapshot", state)))
			return
		}
		defB, guideB, iter, err := s.bestSoFar(j)
		if err != nil {
			writeErr(w, errConflict("no checkpoint yet: "+err.Error()))
			return
		}
		body := defB
		if name == "out.guide" {
			body = guideB
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-CRP-Checkpoint-Iter", fmt.Sprint(iter))
		w.Write(body)
	}
}

// bestSoFar renders outputs from the job's newest committed checkpoint.
// It reads the checkpoint directory read-only next to (not inside) the
// running attempt's manager, creating nothing in a job directory it may
// not own: checkpoint commits are atomic renames, so the latest snapshot is
// always a consistent boundary state. The design is built only once a
// snapshot is found.
func (s *Service) bestSoFar(j *Job) (defB, guideB []byte, iter int, err error) {
	mgr := checkpoint.OpenReadOnly(filepath.Join(j.Dir, ckptDirName))
	if _, _, err := mgr.Latest(); err != nil {
		return nil, nil, 0, err
	}
	d, err := j.Spec.Design()
	if err != nil {
		return nil, nil, 0, err
	}
	return flow.CheckpointOutputs(d, 0, j.Spec.FlowConfig(), mgr)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr serializes an error: *APIError verbatim at its mapped status,
// anything else as a 500.
func writeErr(w http.ResponseWriter, err error) {
	var api *APIError
	if !errors.As(err, &api) {
		api = &APIError{Status: http.StatusInternalServerError,
			Code: "internal", Message: err.Error()}
	}
	writeJSON(w, api.Status, api)
}
