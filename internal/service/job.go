package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/tech"
)

// State is the lifecycle state of a job. Transitions:
//
//	queued → running → done
//	                 ↘ failed
//	running → queued      (checkpoint-backed preemption or daemon drain)
//	queued|running → cancelled
//
// The queued←running cycle is the preemption/migration loop: a preempted
// job keeps its checkpoint directory, so whichever worker slot picks it up
// next resumes from the last committed snapshot, losing at most one
// iteration.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateRetriesExhausted is the terminal state of a job whose
	// supervised activation ran out of its retry wall-clock budget
	// (Config.RetryBudget): the last attempt failed and the budget forbade
	// another. Distinct from StateFailed (which is the attempt-count cap)
	// so orchestrators can tell "crashed too many times" from "crashed for
	// too long".
	StateRetriesExhausted State = "retries_exhausted"
)

// terminal reports whether a state admits no further transitions.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled ||
		s == StateRetriesExhausted
}

// Spec is one job submission: the design — inline LEF/DEF text or a
// synthetic ispd generator spec — plus the CR&P parameters and the per-job
// budgets. The same spec always produces the same outputs, byte for byte,
// no matter how often the job is preempted, killed or migrated.
type Spec struct {
	// Tenant attributes the job for admission control and fairness;
	// empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// LEF and DEF carry the design inline as text. Alternatively,
	// Synthetic names a deterministic ispd generator spec (the service
	// doubles as a benchmark-workload driver); exactly one of the two
	// forms must be present.
	LEF       string     `json:"lef,omitempty"`
	DEF       string     `json:"def,omitempty"`
	Synthetic *ispd.Spec `json:"synthetic,omitempty"`

	// K is the CR&P iteration count (0: the flow default of 10).
	K int `json:"k,omitempty"`
	// Gamma is the critical-set fraction (0: the paper default 0.6).
	Gamma float64 `json:"gamma,omitempty"`
	// Seed drives the selection randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers sizes the engine's parallel phases. In a multi-tenant
	// daemon a job must not grab the whole machine, so 0 means 2 here,
	// not GOMAXPROCS.
	Workers int `json:"workers,omitempty"`

	// Per-job budgets in milliseconds, mapped onto flow.Budgets
	// (0: unlimited). Admission pressure never shrinks these: a job
	// admitted with a budget keeps it for every attempt. ILPBudgetMS caps
	// each Eq. 12 selection search only (flow.Budgets.ILP).
	FlowBudgetMS      int64 `json:"flow_budget_ms,omitempty"`
	IterationBudgetMS int64 `json:"iteration_budget_ms,omitempty"`
	ILPBudgetMS       int64 `json:"ilp_budget_ms,omitempty"`
	DRBudgetMS        int64 `json:"dr_budget_ms,omitempty"`

	// AdmissionDegradations records load-shed clamps applied at admission
	// (rung two of the shed ladder). It is part of the spec — and therefore
	// of the cache hash — because a shed-degraded job is a different
	// computation than the pristine submission; the flow folds each note
	// into Result.Degradations so the caller sees exactly what admission
	// took away. Client-supplied values are rejected at validation: only
	// the daemon writes this field.
	AdmissionDegradations []string `json:"admission_degradations,omitempty"`

	// ParentJob + ECODelta submit an incremental ECO job: the base is the
	// (done) parent job's committed final state — the netlist and
	// placement of its out.def, the routes, demand and history of its
	// newest checkpoint, which must be the run's last — and ECODelta is
	// the delta JSON internal/eco parses. ECO jobs carry no design of
	// their own — both fields must be present together, and are mutually
	// exclusive with LEF/DEF and Synthetic. The cache key folds the
	// parent's own canonical hash plus the canonical delta, so two ECO
	// submissions against byte-identical parents with the same edit hit
	// the same entry even across job ids.
	ParentJob string          `json:"parent_job,omitempty"`
	ECODelta  json.RawMessage `json:"eco_delta,omitempty"`
}

// isECO reports whether the spec is an incremental ECO submission.
func (sp *Spec) isECO() bool { return sp.ParentJob != "" && len(sp.ECODelta) > 0 }

// errInvalidValue marks a spec field whose value is syntactically valid
// JSON but semantically absurd — NaN, negative budgets, parameter values
// past any plausible use. The store maps it to the structured
// "invalid_spec" 400, distinct from the structural "bad_spec" rejections.
var errInvalidValue = errors.New("invalid value")

// Value-sanity bounds for Validate. Generous — they reject typos and
// hostile input, not ambitious workloads.
const (
	// maxSpecK bounds the CR&P iteration count; production runs use ~10.
	maxSpecK = 100_000
	// maxBudgetMS bounds every per-job budget at one week.
	maxBudgetMS = int64(7 * 24 * time.Hour / time.Millisecond)
	// maxSpecWorkers bounds a job's parallelism request.
	maxSpecWorkers = 4096
	// maxInlineDesignBytes bounds each inline LEF/DEF text individually
	// (the HTTP layer separately bounds the whole body).
	maxInlineDesignBytes = 60 << 20
	// maxSyntheticItems bounds a synthetic generator's cells and nets.
	maxSyntheticItems = 50_000_000
)

// Validate rejects malformed specs at admission time, before any queue
// slot is consumed. Structural problems (missing or contradictory design)
// keep their original errors; value-sanity problems — NaN/Inf floats,
// negative or absurd budgets and parameters, oversized inline designs —
// wrap errInvalidValue so the API maps them to "invalid_spec".
func (sp *Spec) Validate() error {
	inline := sp.LEF != "" || sp.DEF != ""
	if inline && (sp.LEF == "" || sp.DEF == "") {
		return errors.New("inline submission needs both lef and def")
	}
	if inline && sp.Synthetic != nil {
		return errors.New("submit either inline lef/def or a synthetic spec, not both")
	}
	ecoHalf := sp.ParentJob != "" || len(sp.ECODelta) > 0
	if ecoHalf && !sp.isECO() {
		return errors.New("eco submission needs both parent_job and eco_delta")
	}
	if sp.isECO() && (inline || sp.Synthetic != nil) {
		return errors.New("eco submission references its parent's design; drop lef/def/synthetic")
	}
	if !inline && sp.Synthetic == nil && !sp.isECO() {
		return errors.New("submission carries no design (lef/def, synthetic, or parent_job+eco_delta)")
	}
	if sp.isECO() {
		// The parent id is joined onto the data directory: it must name
		// one job directory inside it, never a path out of it.
		if id := sp.ParentJob; id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
			return fmt.Errorf("parent_job %q is not a job id: %w", id, errInvalidValue)
		}
		// Strict parse up front: a malformed delta is rejected at admission
		// with the structured invalid_spec code, before any queue slot,
		// worker or parent lookup is spent on it.
		if _, err := eco.Parse(sp.ECODelta); err != nil {
			return fmt.Errorf("%v: %w", err, errInvalidValue)
		}
	}
	if sp.K < 0 || sp.Gamma < 0 || sp.Gamma > 1 {
		return errors.New("k must be >= 0 and gamma in [0, 1]")
	}
	if math.IsNaN(sp.Gamma) || math.IsInf(sp.Gamma, 0) {
		return fmt.Errorf("gamma is not a finite number: %w", errInvalidValue)
	}
	if sp.K > maxSpecK {
		return fmt.Errorf("k %d exceeds the maximum %d: %w", sp.K, maxSpecK, errInvalidValue)
	}
	if sp.Workers < 0 || sp.Workers > maxSpecWorkers {
		return fmt.Errorf("workers %d outside [0, %d]: %w", sp.Workers, maxSpecWorkers, errInvalidValue)
	}
	for _, b := range []struct {
		name string
		ms   int64
	}{
		{"flow_budget_ms", sp.FlowBudgetMS},
		{"iteration_budget_ms", sp.IterationBudgetMS},
		{"ilp_budget_ms", sp.ILPBudgetMS},
		{"dr_budget_ms", sp.DRBudgetMS},
	} {
		if b.ms < 0 || b.ms > maxBudgetMS {
			return fmt.Errorf("%s %d outside [0, %d]: %w", b.name, b.ms, maxBudgetMS, errInvalidValue)
		}
	}
	if len(sp.LEF) > maxInlineDesignBytes || len(sp.DEF) > maxInlineDesignBytes {
		return fmt.Errorf("inline design exceeds %d bytes: %w", maxInlineDesignBytes, errInvalidValue)
	}
	if sy := sp.Synthetic; sy != nil {
		if sy.Cells < 0 || sy.Cells > maxSyntheticItems || sy.Nets < 0 || sy.Nets > maxSyntheticItems {
			return fmt.Errorf("synthetic cells/nets outside [0, %d]: %w", maxSyntheticItems, errInvalidValue)
		}
		if math.IsNaN(sy.Utilisation) || math.IsInf(sy.Utilisation, 0) ||
			math.IsNaN(sy.IOFraction) || math.IsInf(sy.IOFraction, 0) {
			return fmt.Errorf("synthetic utilisation/iofraction is not finite: %w", errInvalidValue)
		}
		if sy.Utilisation < 0 || sy.Utilisation > 1 || sy.IOFraction < 0 || sy.IOFraction > 1 {
			return fmt.Errorf("synthetic utilisation/iofraction outside [0, 1]: %w", errInvalidValue)
		}
	}
	if len(sp.AdmissionDegradations) > 0 {
		return fmt.Errorf("admission_degradations is daemon-assigned, not client-settable: %w", errInvalidValue)
	}
	return nil
}

// FlowConfig maps the spec onto the flow configuration its attempts run
// under. The mapping is pure: reference runs in tests call it to reproduce
// a job's exact configuration.
func (sp *Spec) FlowConfig() flow.Config {
	cfg := flow.DefaultConfig()
	if sp.K > 0 {
		cfg.CRP.Iterations = sp.K
	}
	if sp.Gamma > 0 {
		cfg.CRP.Gamma = sp.Gamma
	}
	if sp.Seed != 0 {
		cfg.CRP.Seed = sp.Seed
	}
	cfg.CRP.Workers = sp.Workers
	if cfg.CRP.Workers <= 0 {
		cfg.CRP.Workers = 2
	}
	cfg.Budgets = flow.Budgets{
		Flow:         time.Duration(sp.FlowBudgetMS) * time.Millisecond,
		CRPIteration: time.Duration(sp.IterationBudgetMS) * time.Millisecond,
		ILP:          time.Duration(sp.ILPBudgetMS) * time.Millisecond,
		DR:           time.Duration(sp.DRBudgetMS) * time.Millisecond,
	}
	for _, note := range sp.AdmissionDegradations {
		cfg.AdmitDegradations = append(cfg.AdmitDegradations, flow.Degradation{
			Stage: "admission", Kind: "load-shed", Detail: note,
		})
	}
	return cfg
}

// Design produces the job's input design: parsed from the inline LEF/DEF
// text or generated from the synthetic spec. Both paths are deterministic,
// so every attempt — possibly in a different process — sees identical
// input.
func (sp *Spec) Design() (*db.Design, error) {
	if sp.isECO() {
		return nil, errors.New("eco spec has no design of its own; rebuild it from the parent job")
	}
	if sp.Synthetic != nil {
		return ispd.Generate(*sp.Synthetic)
	}
	t, macros, err := sp.Library()
	if err != nil {
		return nil, err
	}
	d, err := lefdef.ParseDEF(strings.NewReader(sp.DEF), t, macros)
	if err != nil {
		return nil, fmt.Errorf("parsing def: %w", err)
	}
	return d, nil
}

// Library produces the job's technology and cell library, the one its
// design is built from: parsed from the inline LEF, or the synthetic
// generator's (ispd.Library). A DEF the job wrote parses against it, which
// is how an ECO child reads its parent's out.def without rebuilding the
// parent's design.
func (sp *Spec) Library() (*tech.Tech, []*db.Macro, error) {
	if sp.isECO() {
		return nil, nil, errors.New("eco spec has no library of its own; read its parent's")
	}
	if sp.Synthetic != nil {
		return ispd.Library(*sp.Synthetic)
	}
	t, macros, err := lefdef.ParseLEF(strings.NewReader(sp.LEF))
	if err != nil {
		return nil, nil, fmt.Errorf("parsing lef: %w", err)
	}
	return t, macros, nil
}

// tenant returns the admission tenant, defaulted.
func (sp *Spec) tenant() string {
	if sp.Tenant == "" {
		return "default"
	}
	return sp.Tenant
}

// Metrics is the job-level result summary (the full eval.Metrics carries
// per-net slices too heavy for a status endpoint).
type Metrics struct {
	WirelengthDBU int64   `json:"wirelength_dbu"`
	Vias          int64   `json:"vias"`
	Score         float64 `json:"score"`
	Truncated     bool    `json:"truncated,omitempty"`
}

// ECOSummary is the incremental-run footprint of an ECO job: how much of
// the design went dirty and whether the ladder fell back to a full run.
type ECOSummary struct {
	DirtyCells         int   `json:"dirty_cells"`
	TotalCells         int   `json:"total_cells"`
	Rounds             int   `json:"rounds"`
	HaloWidened        bool  `json:"halo_widened,omitempty"`
	FullRun            bool  `json:"full_run,omitempty"`
	CandidateEstimates int64 `json:"candidate_estimates"`
}

// result is the persisted outcome of a completed job (result.json in the
// job directory), written atomically by the worker attempt that finished
// the run.
type result struct {
	Metrics      Metrics     `json:"metrics"`
	Iterations   int         `json:"iterations"`
	TotalMoved   int         `json:"total_moved"`
	Degradations []string    `json:"degradations,omitempty"`
	ECO          *ECOSummary `json:"eco,omitempty"`
}

// Job is one unit of admitted work. Mutable fields are guarded by mu;
// the spec, ID, sequence number and directory are immutable after
// admission.
type Job struct {
	ID   string
	Seq  int
	Spec Spec
	Dir  string

	hub hub // event-stream wakeups for this job

	mu          sync.Mutex
	state       State
	attempts    int
	preemptions int
	workerPID   int
	errMsg      string
	// preempt cancels the running attempt's supervision context; nil
	// unless running. reason records why ("preempt", "drain", "cancel")
	// so the pool can requeue vs. terminate accordingly.
	preempt       func()
	preemptReason string
	// hardCancel stops the running attempt immediately — no checkpoint
	// boundary, no grace: the flow's hard context cancel (in-process) or a
	// SIGKILL of the child process. Halt uses it to simulate a node dying
	// mid-write.
	hardCancel func()
	// leaseToken is the fencing token of the current claim; 0 when not
	// claimed by this node.
	leaseToken int64
	// remote marks a job another node currently owns (live lease held
	// elsewhere). Remote jobs are tracked for status/listing but never
	// queued locally; the scan loop re-adopts them if their lease expires.
	remote bool
	// leaseLost marks a running job whose lease this node could not renew
	// (or whose writes came back fenced): ownership has moved, so the pool
	// detaches — no state writes, no requeue — instead of releasing.
	leaseLost bool
}

// Status is the externally visible job state (GET /v1/jobs/{id}).
type Status struct {
	ID          string   `json:"id"`
	Tenant      string   `json:"tenant"`
	State       State    `json:"state"`
	Iter        int      `json:"iter"`
	K           int      `json:"k"`
	TotalMoved  int      `json:"total_moved,omitempty"`
	Attempts    int      `json:"attempts"`
	Preemptions int      `json:"preemptions,omitempty"`
	WorkerPID   int      `json:"worker_pid,omitempty"`
	Error       string   `json:"error,omitempty"`
	Metrics     *Metrics `json:"metrics,omitempty"`
}

// jobRecord is the persisted control-plane state (state.json), written
// atomically on every transition so a restarted daemon can rebuild its
// queue: queued and running jobs are requeued (their checkpoints carry the
// data plane), terminal jobs stay terminal with their outputs fetchable.
type jobRecord struct {
	ID          string `json:"id"`
	Seq         int    `json:"seq"`
	State       State  `json:"state"`
	Attempts    int    `json:"attempts"`
	Preemptions int    `json:"preemptions"`
	Error       string `json:"error,omitempty"`
}

func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		ID: j.ID, Seq: j.Seq, State: j.state,
		Attempts: j.attempts, Preemptions: j.preemptions, Error: j.errMsg,
	}
}

// snapshot returns the in-memory half of the job's status; the store fills
// in journal-derived progress.
func (j *Job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.ID,
		Tenant:      j.Spec.tenant(),
		State:       j.state,
		Attempts:    j.attempts,
		Preemptions: j.preemptions,
		WorkerPID:   j.workerPID,
		Error:       j.errMsg,
	}
}

func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setPID(pid int) {
	j.mu.Lock()
	j.workerPID = pid
	j.mu.Unlock()
}

// dropClaimLocked forgets this node's claim on the job — its fencing token
// and the running attempt's handles — and returns the token and the
// attempt's two stops: preempt (at the next checkpoint boundary) and
// hardCancel (at once). The caller holds j.mu.
func (j *Job) dropClaimLocked() (token int64, preempt, hardCancel func()) {
	token, preempt, hardCancel = j.leaseToken, j.preempt, j.hardCancel
	j.leaseToken = 0
	j.preempt = nil
	j.preemptReason = ""
	j.hardCancel = nil
	j.workerPID = 0
	return token, preempt, hardCancel
}
