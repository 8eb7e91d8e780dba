package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/crp-eda/crp/internal/atomicio"
)

// Node liveness and shared-store reconciliation: every daemon sharing a
// DataDir runs one scheduler loop (Service.schedule) that
//
//   - heartbeats: refreshes this node's liveness record under nodes/ and
//     renews the leases of every locally running job — a renewal that
//     comes back ErrLeaseLost means the job was stolen and the local
//     attempt is cancelled (its writes are already fenced);
//   - scans: walks the store for job directories this node has never seen
//     (submitted by peers — registered as remote) and for non-terminal
//     jobs whose lease is absent, released or expired (their owner died —
//     adopted into the local queue to resume from the latest checkpoint).
//
// There is no node-to-node channel: the shared directory, leases and
// fencing tokens are the entire coordination protocol.

const nodesDirName = "nodes"

// nodeRecord is one daemon's persisted liveness record
// (nodes/<node>.json), refreshed every heartbeat.
type nodeRecord struct {
	Node     string `json:"node"`
	PID      int    `json:"pid"`
	Running  int    `json:"running"`
	Draining bool   `json:"draining"`
	Renewed  int64  `json:"renewed_unix_ns"`
	TTLNS    int64  `json:"ttl_ns"`
}

// NodeStatus is one daemon's liveness row (GET /v1/nodes). Expired means
// the node has missed more than two lease TTLs of heartbeats and its jobs
// are being (or have been) adopted by the survivors.
type NodeStatus struct {
	Node     string    `json:"node"`
	PID      int       `json:"pid"`
	Running  int       `json:"running"`
	Draining bool      `json:"draining"`
	Renewed  time.Time `json:"renewed"`
	Expired  bool      `json:"expired"`
}

// heartbeat refreshes this node's liveness record and renews every locally
// running job's lease. A lost lease cancels the local attempt via
// markLeaseLost. No-op once halted: a dead node neither beats nor renews.
func (st *store) heartbeat() {
	st.mu.Lock()
	if st.halted {
		st.mu.Unlock()
		return
	}
	running := make([]*Job, 0, len(st.running))
	for _, j := range st.running {
		running = append(running, j)
	}
	draining := st.draining
	st.mu.Unlock()

	rec, err := json.Marshal(nodeRecord{
		Node:     st.cfg.NodeID,
		PID:      os.Getpid(),
		Running:  len(running),
		Draining: draining,
		Renewed:  time.Now().UnixNano(),
		TTLNS:    int64(st.cfg.LeaseTTL),
	})
	if err == nil {
		atomicio.WriteFileBytes(filepath.Join(st.nodesDir, st.cfg.NodeID+".json"), rec)
	}

	for _, j := range running {
		j.mu.Lock()
		token := j.leaseToken
		lost := j.leaseLost
		j.mu.Unlock()
		if token == 0 || lost {
			continue
		}
		if err := st.lm.renew(j.Dir, token); errors.Is(err, ErrLeaseLost) {
			st.markLeaseLost(j)
		}
	}
}

// scan reconciles the in-memory view with the shared store (see the
// package comment above). Quiet on a single-node store: every directory
// is either locally known and owned, or terminal. The first scan, in New,
// is startup recovery: it registers every job directory, and requeues the
// unfinished jobs no live peer holds — their checkpoint directories make
// the resume exact. It fails only when the data directory is unreadable.
func (st *store) scan() error {
	entries, err := os.ReadDir(st.cfg.DataDir)
	if err != nil {
		return err
	}
	now := time.Now().UnixNano()
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() || name == cacheDirName || name == nodesDirName {
			continue
		}
		st.scanJob(name, filepath.Join(st.cfg.DataDir, name), now)
	}
	return nil
}

func (st *store) scanJob(name, dir string, now int64) {
	st.mu.Lock()
	if st.halted || st.draining {
		st.mu.Unlock()
		return
	}
	j, known := st.jobs[name]
	st.mu.Unlock()

	if !known {
		nj, ok := loadJobDir(name, dir)
		if !ok {
			return
		}
		st.mu.Lock()
		if _, dup := st.jobs[name]; dup {
			st.mu.Unlock()
			return // lost a race with a local submit
		}
		nj.remote = true
		st.jobs[name] = nj
		if nj.Seq > st.seq {
			st.seq = nj.Seq
		}
		st.mu.Unlock()
		j = nj
	}

	j.mu.Lock()
	eligible := j.remote && !j.state.terminal()
	j.mu.Unlock()
	if !eligible {
		return
	}

	// Fold the owner's progress in; if it completed the job, we are done.
	st.refreshRemote(j)
	if j.currentState().terminal() {
		j.hub.notify()
		return
	}

	// Still unfinished: adoptable the moment its lease is absent, released
	// or expired. The actual claim (and token bump) happens in next() —
	// two nodes may both adopt, exactly one wins the acquire.
	lease, err := readLease(dir)
	if err != nil {
		// Unreadable is expired, as acquire treats it: the claim in next()
		// rewrites the record with a fresh token.
		lease = leaseRecord{}
	}
	if lease.Node != "" && lease.Node != st.cfg.NodeID && now < lease.Deadline {
		return // owner is alive
	}
	st.mu.Lock()
	if st.halted || st.draining {
		st.mu.Unlock()
		return
	}
	j.mu.Lock()
	if !j.remote || j.state.terminal() {
		j.mu.Unlock()
		st.mu.Unlock()
		return
	}
	j.remote = false
	j.state = StateQueued
	j.mu.Unlock()
	st.queue = append(st.queue, j)
	sort.Slice(st.queue, func(a, b int) bool { return st.queue[a].Seq < st.queue[b].Seq })
	if lease.Node != "" && lease.Node != st.cfg.NodeID && lease.Deadline != 0 {
		// An expired (not cleanly released) foreign lease: a failover steal.
		st.steals.Add(1)
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// loadJobDir builds a Job from its directory — at startup, in a scan, or
// for an ECO parent this node has not registered. ok is false when the
// directory holds no readable spec.json (not a job directory); a missing
// or unreadable state.json reads as queued.
func loadJobDir(name, dir string) (*Job, bool) {
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, false
	}
	rec, _ := readRecord(dir)
	if rec.ID == "" {
		rec.ID = name
	}
	if rec.State == "" {
		rec.State = StateQueued
	}
	j := &Job{ID: rec.ID, Seq: rec.Seq, Spec: *spec, Dir: dir,
		state: rec.State, attempts: rec.Attempts, preemptions: rec.Preemptions}
	j.errMsg = rec.Error
	return j, true
}

// readRecord reads a job directory's control-plane record (state.json).
func readRecord(dir string) (jobRecord, error) {
	var rec jobRecord
	data, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	return rec, err
}

// nodes lists every daemon that has ever heartbeat into this store,
// sorted by node id.
func (st *store) nodes() []NodeStatus {
	entries, err := os.ReadDir(st.nodesDir)
	if err != nil {
		return nil
	}
	var out []NodeStatus
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.nodesDir, ent.Name()))
		if err != nil {
			continue
		}
		var rec nodeRecord
		if json.Unmarshal(data, &rec) != nil || rec.Node == "" {
			continue
		}
		renewed := time.Unix(0, rec.Renewed)
		ttl := time.Duration(rec.TTLNS)
		if ttl <= 0 {
			ttl = 10 * time.Second
		}
		out = append(out, NodeStatus{
			Node:     rec.Node,
			PID:      rec.PID,
			Running:  rec.Running,
			Draining: rec.Draining,
			Renewed:  renewed,
			Expired:  time.Since(renewed) > 2*ttl,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}
