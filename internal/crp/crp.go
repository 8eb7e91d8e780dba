// Package crp implements the paper's primary contribution: the Co-operation
// between Routing and Placement framework (Section IV). One CR&P iteration
// runs five phases over a placed-and-globally-routed design:
//
//  1. Label Critical Cells (Algorithm 1): cells are sorted by the routed
//     cost of their nets; a connectivity-disjoint subset is selected with a
//     simulated-annealing-style re-selection probability for cells touched
//     in earlier iterations (hist_c, hist_m), capped at γ·|C|.
//  2. Generate Candidate Positions (Algorithm 2): each critical cell keeps
//     its current position and receives extra legal positions from the
//     ILP-based legalizer, each paired with the conflict-cell relocations
//     that make it legal. The stay-put candidate is priced first, and a
//     target slot that provably cannot undercut it is neither relocated nor
//     priced (the stay-put bound, see dominated).
//  3. Candidate Cost Estimation (Algorithm 3): every candidate is priced by
//     the fast 3D pattern router over the nets of every cell the candidate
//     moves, with all other cells fixed.
//  4. Selection ILP (Eq. 12): exactly one candidate per critical cell,
//     pairwise exclusion between candidates whose moved footprints or moved
//     cells collide, minimising total estimated routing cost.
//  5. Update Database: selected moves are committed, their nets are ripped
//     up and rerouted, and the history sets are updated.
//
// Phases 2 and 3 run on a worker pool, matching the paper's "run parallel"
// annotations; phase timings are recorded per iteration so the Fig. 3
// runtime breakdown can be regenerated.
package crp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/legal"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/steiner"
	"github.com/crp-eda/crp/internal/view"
)

// CostMode selects the candidate cost model; LengthOnly is the ablation
// that reproduces the state-of-the-art baseline's congestion-blind cost
// (one of the two differences the paper credits for beating [18]).
type CostMode uint8

const (
	// CongestionAware prices candidates with Eq. 10 (the paper's model).
	CongestionAware CostMode = iota
	// LengthOnly prices candidates by Steiner length alone.
	LengthOnly
)

// Hooks are optional seams for fault injection and testing. All fields may
// be nil (the default), in which case the engine's behaviour is exactly the
// un-hooked fast path. GCP/ECC hooks run inside worker goroutines and may
// panic — the worker pool quarantines the offending work item instead of
// crashing the run.
type Hooks struct {
	// GCP fires before candidate generation of critical cell index i.
	GCP func(iter, i int)
	// ECC fires before cost estimation of candidate group i.
	ECC func(iter, i int)
	// PostUD fires after the update-database phase, before the iteration's
	// invariant check — the seam the chaos suite uses to prove rollback.
	PostUD func(iter int)
	// SolveSelection replaces the selection-ILP solve (Eq. 12) entirely;
	// tests use it to force LimitReached/Infeasible outcomes.
	SolveSelection func(m *ilp.Model, opt ilp.Options) ilp.Solution
	// ILPOptions rewrites the selection solve options (fault injection:
	// budget starvation).
	ILPOptions func(opt ilp.Options) ilp.Options
}

// Degradation records one fault-tolerance event: a fallback taken, a
// quarantined worker, a missed deadline, or a rolled-back iteration. A run
// with no faults and no expired budgets reports none.
type Degradation struct {
	Iter   int    // 1-based CR&P iteration (0: outside any iteration)
	Kind   string // stable identifier, e.g. "worker-panic", "selection-fallback"
	Detail string
}

// String implements fmt.Stringer.
func (d Degradation) String() string {
	return fmt.Sprintf("iter %d: %s (%s)", d.Iter, d.Kind, d.Detail)
}

// Config tunes the framework; DefaultConfig returns the paper's values.
type Config struct {
	// Iterations is k, the number of CR&P iterations (paper: 1 and 10).
	Iterations int
	// Gamma caps the critical set at Gamma*|C| (paper: 0.6).
	Gamma float64
	// Seed drives the selection randomness; runs are reproducible.
	Seed int64
	// Workers sizes the parallel phases; 0 means GOMAXPROCS.
	Workers int
	// Legal configures the legalizer window.
	Legal legal.Config
	// CostMode selects the candidate cost model (ablation hook).
	CostMode CostMode
	// NoPriority disables the cost sort of Algorithm 1 (ablation hook:
	// [18] moves cells with no priority).
	NoPriority bool
	// IterTimeout is the per-iteration deadline (0: none). An iteration
	// that runs out of time completes its committed work and stops before
	// the next uncommitted phase; it never leaves a half-applied state.
	IterTimeout time.Duration
	// ILPTimeLimit caps each selection-ILP solve (0: none). On expiry the
	// greedy improving selection takes over (degradation ladder).
	ILPTimeLimit time.Duration
	// Scope, when non-nil, restricts Algorithm 1's candidate pool: only
	// cells the predicate admits may be labelled critical. The ECO engine
	// points it at the dirty-region tracker so re-labeling stays local to
	// the edit — out-of-scope cells are never considered, consume no RNG
	// draws, and their history sets are untouched. nil (the default)
	// considers every movable cell, the full-run behaviour.
	Scope func(id int32) bool
	// Hooks are fault-injection/testing seams; zero value = none.
	Hooks Hooks
}

// DefaultConfig returns the paper's experimental parameters.
func DefaultConfig() Config {
	return Config{
		Iterations: 10,
		Gamma:      0.6,
		Seed:       1,
		Legal:      legal.DefaultConfig(),
	}
}

// PhaseTimes is the per-iteration runtime breakdown reported in Fig. 3:
// GCP (generate candidate positions), ECC (estimate candidates cost), UD
// (update database), and Misc (labeling plus the selection ILP).
type PhaseTimes struct {
	Label time.Duration // critical-cell labeling (Misc)
	GCP   time.Duration
	ECC   time.Duration
	ILP   time.Duration // selection ILP (Misc)
	UD    time.Duration

	// GCPGen is the legalizer's time in the GCP phase, summed across
	// concurrent workers (CPU-time-like), so it need not match the
	// wall-clock GCP above.
	GCPGen time.Duration
	// GCPILP is always 0: the relocation ILP it timed is gone. It stays
	// until the benchmark stops reading it.
	GCPILP time.Duration
}

// Misc returns the paper's Misc bucket (everything but GCP/ECC/UD).
func (p PhaseTimes) Misc() time.Duration { return p.Label + p.ILP }

// Total returns the summed phase time.
func (p PhaseTimes) Total() time.Duration { return p.Label + p.GCP + p.ECC + p.ILP + p.UD }

// IterStats records what one iteration did.
type IterStats struct {
	Criticals    int
	Candidates   int
	MovedCells   int // critical + conflict cells that changed position
	ReroutedNets int
	EstBefore    float64 // selected candidates' estimated cost at current positions
	EstAfter     float64 // selected candidates' estimated cost
	Times        PhaseTimes
	SolverNodes  int
	SolverStatus ilp.Status
	SkippedMoves int // selected moves that failed to apply (defensive)

	// Robustness outcomes (all zero on a fault-free iteration).
	Quarantined    int  // worker panics contained this iteration
	GreedyFallback bool // selection ILP fell back to the greedy selection
	RolledBack     bool // invariant violation undid the whole iteration
	DeadlineHit    bool // the iteration deadline expired mid-iteration
	// Degradations details every robustness event of this iteration.
	Degradations []Degradation
}

// Result aggregates a full CR&P run.
type Result struct {
	Iterations []IterStats
	TotalMoved int
	// CandidateEstimates counts Algorithm 3 candidate pricings performed by
	// this engine — the work metric the ECO differential referee compares
	// against a from-scratch run (ECO must price ≥10× fewer candidates on
	// small deltas). Engine-lifetime, so a resumed engine counts only its
	// own process's work.
	CandidateEstimates int64
	// Degradations aggregates every iteration's fault-tolerance events;
	// empty on a clean run.
	Degradations []Degradation
}

// Degraded reports whether any fault-tolerance event fired during the run.
func (r *Result) Degraded() bool { return len(r.Degradations) > 0 }

// Times sums the phase breakdown over all iterations.
func (r *Result) Times() PhaseTimes {
	var t PhaseTimes
	for _, it := range r.Iterations {
		t.Label += it.Times.Label
		t.GCP += it.Times.GCP
		t.ECC += it.Times.ECC
		t.ILP += it.Times.ILP
		t.UD += it.Times.UD
		t.GCPGen += it.Times.GCPGen
	}
	return t
}

// Engine runs CR&P over a design with a committed global routing.
type Engine struct {
	D   *db.Design
	G   *grid.Grid
	R   *global.Router
	L   *legal.Legalizer
	Cfg Config
	// V is the design-state view the engine reads through and mutates
	// under: ECC prices candidates on per-worker overlays, and the
	// update-database phase runs inside a view transaction.
	V   *view.View
	rng *rand.Rand
	// src is the counted source behind rng: it tallies every value drawn so
	// a checkpoint can record the stream position and a resumed engine can
	// fast-forward to it (see State/RestoreState).
	src *countedSource

	// ovs holds one speculation overlay per worker slot; parallelFor hands
	// every worker a stable index, so phase-3 costing runs allocation-lean
	// without locking.
	ovs []*view.Overlay
	// scratch holds one legalizer scratch per worker slot for the phase-2
	// candidate-generation fan-out.
	scratch []*legal.Scratch

	// iter is the 1-based running iteration counter (fills Degradation.Iter).
	iter int
	// resWire/resVia are the grid demand residuals not explained by
	// committed routes (obstacle/pin seeding), captured at construction;
	// the transactional invariant check asserts they never drift.
	resWire float64
	resVia  float64
	// broken latches an unrecoverable invariant violation (rollback did
	// not restore consistency); the iteration loop stops once set.
	broken bool

	// estimates counts Algorithm 3 candidate pricings over the engine's
	// lifetime; atomic because pricing runs under parallelFor workers.
	estimates atomic.Int64
}

// EstimateCount returns the number of candidate cost estimations the engine
// has performed — the ECO work metric surfaced in Result.CandidateEstimates.
func (e *Engine) EstimateCount() int64 { return e.estimates.Load() }

// New builds an engine. The router must already hold the initial global
// routing (the framework sits between global and detailed routing, Fig. 1).
func New(d *db.Design, g *grid.Grid, r *global.Router, cfg Config) *Engine {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = DefaultConfig().Gamma
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	v := view.New(d, g, r)
	ovs := make([]*view.Overlay, cfg.Workers)
	scratch := make([]*legal.Scratch, cfg.Workers)
	for i := range ovs {
		ovs[i] = v.Overlay()
		scratch[i] = legal.NewScratch()
	}
	src := newCountedSource(cfg.Seed)
	e := &Engine{
		D:       d,
		G:       g,
		R:       r,
		L:       legal.New(d, cfg.Legal),
		Cfg:     cfg,
		V:       v,
		rng:     rand.New(src),
		src:     src,
		ovs:     ovs,
		scratch: scratch,
	}
	sumW, sumV := e.routeDemand()
	e.resWire = g.TotalWireUsage() - sumW
	e.resVia = g.TotalViaCount() - sumV
	return e
}

// routeDemand sums the grid demand explained by the router's committed
// routes: wire usage on layers >= 1 (layer 0 has no capacity and is excluded
// from TotalWireUsage) and all via edges. The difference between the grid
// totals and these sums is the construction-time residual (pin/obstacle
// seeding) that checkInvariants asserts never drifts.
func (e *Engine) routeDemand() (wires, vias float64) {
	for _, rt := range e.R.Routes {
		if rt == nil {
			continue
		}
		for _, w := range rt.Wires {
			if w.L >= 1 {
				wires++
			}
		}
		vias += float64(len(rt.Vias))
	}
	return wires, vias
}

// cellCost is the Algorithm 1 sort key: the summed live cost of the cell's
// routed nets.
func (e *Engine) cellCost(id int32) float64 {
	cost := 0.0
	for _, nid := range e.D.Cells[id].Nets {
		cost += e.V.NetCost(nid)
	}
	return cost
}

// temperature is T, the simulated-annealing temperature of Algorithm 1
// (paper: 1).
const temperature = 1.0

// labelCriticalCells is Algorithm 1.
func (e *Engine) labelCriticalCells() []int32 {
	d := e.D
	type scored struct {
		id   int32
		cost float64
	}
	cells := make([]scored, 0, len(d.Cells))
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		// The ECO scope filter runs before the sort and the damping draws:
		// an out-of-scope cell affects neither the RNG stream consumed by
		// in-scope labeling nor any history set.
		if e.Cfg.Scope != nil && !e.Cfg.Scope(c.ID) {
			continue
		}
		cells = append(cells, scored{c.ID, e.cellCost(c.ID)})
	}
	if !e.Cfg.NoPriority {
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].cost != cells[b].cost {
				return cells[a].cost > cells[b].cost
			}
			return cells[a].id < cells[b].id
		})
	}
	limit := int(e.Cfg.Gamma * float64(len(cells)))
	inSet := make([]bool, len(d.Cells))
	var critical []int32
	for _, s := range cells {
		// The γ·|C| cap is checked before inserting so the set can never
		// exceed it (it used to run after the append, letting the set
		// reach limit+1).
		if len(critical) >= limit {
			break
		}
		// (1) no connected cell may already be critical: moving two
		// connected cells at once would invalidate Algorithm 3's
		// one-moving-cell-per-net assumption. A cell is connected when it
		// has a pin on one of s's nets (db.ConnectedCells).
		if e.sharesNetWith(s.id, inSet) {
			continue
		}
		// (2)+(3) history damping: previously-labelled cells re-enter
		// with probability exp(-1/T), previously-moved with exp(-2/T) —
		// the simulated-annealing form, T scaling the exponent (at T=1:
		// ≈36% and ≈13%).
		hist := 0.0
		if d.WasCritical(s.id) {
			hist++
		}
		if d.WasMoved(s.id) {
			hist++
		}
		accept := math.Exp(-hist / temperature)
		if accept > e.rng.Float64() {
			inSet[s.id] = true
			critical = append(critical, s.id)
		}
	}
	return critical
}

// sharesNetWith reports whether a cell other than id with a pin on one of
// id's nets is in set.
func (e *Engine) sharesNetWith(id int32, set []bool) bool {
	for _, nid := range e.D.Cells[id].Nets {
		for _, pr := range e.D.Nets[nid].Pins {
			if pr.Cell != id && set[pr.Cell] {
				return true
			}
		}
	}
	return false
}

// candidate is one placement option of a critical cell, Algorithm 2's
// output unit: the target plus any conflict relocations, priced by
// Algorithm 3.
type candidate struct {
	cell      int32
	pos       geom.Point
	conflicts map[int32]geom.Point
	cost      float64
	isCurrent bool
	// priced marks a stay-put candidate whose cost GCP already computed.
	priced bool
}

// movedCells lists every cell the candidate repositions.
func (c *candidate) movedCells() []int32 {
	out := []int32{c.cell}
	for id := range c.conflicts {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// generateCandidates is Algorithm 2: current position plus legalizer
// output, in parallel over critical cells. A worker panic (or a cancelled
// context) leaves that cell with only its stay-put candidate, so the
// selection phase can never pick half-generated work.
func (e *Engine) generateCandidates(ctx context.Context, critical []int32) ([][]candidate, []quarantined) {
	out := make([][]candidate, len(critical))
	quar := e.parallelFor(ctx, len(critical), func(w, i int) {
		out[i] = e.generateOne(w, i, critical[i])
	})
	// Cells skipped by cancellation or quarantined by a panic keep exactly
	// their current position.
	for i := range out {
		if out[i] == nil {
			out[i] = e.stayPutOnly(critical[i])
		}
	}
	return out, quar
}

// generateOne builds critical cell i's candidate list — the current
// position, priced first, plus the legalizer's output under the stay-put
// bound — on worker w's scratch and overlay: the per-item body of the
// generation fan-out.
func (e *Engine) generateOne(w, i int, cid int32) []candidate {
	if h := e.Cfg.Hooks.GCP; h != nil {
		h(e.iter, i)
	}
	ov := e.ovs[w]
	cands := e.stayPutOnly(cid)
	cands[0].cost, cands[0].priced = e.estimateCandidate(&cands[0], ov, math.Inf(1)), true
	limit := dominanceLimit(cands[0].cost)
	bound := func(pos geom.Point, conflicts []int32) bool {
		return e.dominated(ov, cid, pos, conflicts, limit)
	}
	for _, lc := range e.L.RunScratch(cid, e.scratch[w], bound) {
		cands = append(cands, candidate{cell: cid, pos: lc.Pos, conflicts: lc.Conflicts})
	}
	return cands
}

// dominated is the stay-put bound, the legal.Bound of critical cell cid:
// it reports whether every candidate that puts cid at pos and relocates
// conflicts costs at least limit (the cell's dominanceLimit), wherever the
// conflict cells go — so pruneDominated would drop it. Staging the conflict
// cells where they stand yields the candidate's exact Algorithm 3 net order,
// which depends on which cells are staged, not where. A net with no pin on
// a conflict cell has the candidate's terminals and is priced exactly; one
// with such a pin is bounded over its other terminals (netLowerBound). Each
// term is at most the candidate's own for every relocation, and float
// addition of non-negative terms is monotone, so the running sum never
// exceeds the candidate's cost.
func (e *Engine) dominated(ov *view.Overlay, cid int32, pos geom.Point, conflicts []int32, limit float64) bool {
	ov.Reset()
	ov.Stage(cid, pos)
	for _, id := range conflicts {
		ov.Stage(id, e.V.Pos(id))
	}
	total := 0.0
	for _, nid := range ov.AffectedNets() {
		pts := ov.NetTerminals(nid)
		// NetTerminals lists the net's pins in order, then its IO
		// terminals; the conflict cells' pins are dropped in place.
		pins := e.D.Nets[nid].Pins
		others := pts[:0]
		for k, p := range pts {
			if k < len(pins) && slices.Contains(conflicts, pins[k].Cell) {
				continue
			}
			others = append(others, p)
		}
		if len(others) == len(pts) {
			total += e.netCost(pts)
		} else {
			total += e.netLowerBound(others)
		}
		if total >= limit {
			return true
		}
	}
	return false
}

// stayPutOnly is the quarantine fallback candidate list: exactly the
// cell's current position.
func (e *Engine) stayPutOnly(cid int32) []candidate {
	return []candidate{{cell: cid, pos: e.V.Pos(cid), conflicts: map[int32]geom.Point{}, isCurrent: true}}
}

// estimateCosts is Algorithm 3: each candidate's cost is the summed
// estimated routing cost of every net touching a cell the candidate moves,
// with the candidate's positions applied hypothetically and every other
// cell fixed. Each worker prices on its own view overlay.
//
// A group abandoned mid-pricing (panic or cancellation) can never look
// attractive: it is reset to "stay put is free, every move is infinitely
// expensive".
func (e *Engine) estimateCosts(ctx context.Context, cands [][]candidate) []quarantined {
	done := make([]bool, len(cands))
	quar := e.parallelFor(ctx, len(cands), func(w, i int) {
		e.estimateGroup(e.ovs[w], i, cands[i])
		done[i] = true
	})
	for i := range cands {
		if !done[i] {
			resetGroupCosts(cands[i])
		}
	}
	return quar
}

// estimateGroup prices every candidate of group i on overlay ov — the
// per-item body of the estimation fan-out. The stay-put candidate comes
// first (GCP priced it unless the cell fell back to stayPutOnly), and a
// move's sum stops once it reaches the stay-put's dominanceLimit:
// pruneDominated drops that move whatever the remaining nets add.
func (e *Engine) estimateGroup(ov *view.Overlay, i int, group []candidate) {
	if h := e.Cfg.Hooks.ECC; h != nil {
		h(e.iter, i)
	}
	if !group[0].priced {
		group[0].cost = e.estimateCandidate(&group[0], ov, math.Inf(1))
	}
	limit := dominanceLimit(group[0].cost)
	for j := 1; j < len(group); j++ {
		group[j].cost = e.estimateCandidate(&group[j], ov, limit)
	}
}

// resetGroupCosts restores a group abandoned mid-pricing to "stay put is
// free, every move is infinitely expensive".
func resetGroupCosts(group []candidate) {
	for j := range group {
		if group[j].isCurrent {
			group[j].cost = 0
		} else {
			group[j].cost = math.Inf(1)
		}
	}
}

// estimateCandidate prices candidate c on overlay ov, stopping as soon as
// the running sum reaches limit (+Inf prices the whole candidate). Every
// net cost is non-negative, so a stopped sum is still at least limit.
func (e *Engine) estimateCandidate(c *candidate, ov *view.Overlay, limit float64) float64 {
	e.estimates.Add(1)
	// The hypothetical moves: the critical cell first, then the conflict
	// cells in ascending ID order. Fixed order matters — the per-net costs
	// are summed in discovery order, and float addition is not associative,
	// so the staging order is part of the bit-identity contract (the overlay
	// documents the same invariant).
	ov.Reset()
	ov.Stage(c.cell, c.pos)
	ov.StageSorted(c.conflicts)
	// Cost the union of nets over all moved cells, each net once.
	total := 0.0
	for _, nid := range ov.AffectedNets() {
		total += e.netCost(ov.NetTerminals(nid))
		if total >= limit {
			break
		}
	}
	return total
}

// netCost prices one net's terminals: Algorithm 3's per-net term.
func (e *Engine) netCost(pts []geom.Point) float64 {
	if e.Cfg.CostMode == LengthOnly {
		tree := steiner.Build(pts)
		return float64(tree.Length())
	}
	return e.R.EstimateTerminalCost(pts)
}

// netLowerBound bounds netCost from below over every terminal set that
// contains pts. A Steiner tree spans its terminals' bounding box, so in
// LengthOnly mode the half-perimeter of pts bounds its length.
func (e *Engine) netLowerBound(pts []geom.Point) float64 {
	if e.Cfg.CostMode == LengthOnly {
		return float64(steiner.HPWL(pts))
	}
	return e.R.EstimateLowerBound(pts)
}

// quarantined records a work item whose worker panicked: the pool contains
// the panic, skips the item, and reports it instead of killing the run.
type quarantined struct {
	index int
	msg   string
}

// parallelFor runs fn(worker, i) for i in [0,n) on the worker pool. Work is
// claimed in chunks off an atomic counter instead of being pushed one index
// at a time through an unbuffered channel: claiming costs one uncontended
// atomic add per chunk rather than a channel rendezvous per index, and the
// stable worker index lets callers keep per-worker scratch state.
//
// Robustness contract: a panicking fn quarantines only its own index (the
// rest of the chunk and pool continue), and a cancelled ctx stops workers at
// the next chunk boundary — indices never claimed are simply not run, which
// callers observe through their own completion bookkeeping. All goroutines
// are joined before returning; nothing leaks on cancellation.
func (e *Engine) parallelFor(ctx context.Context, n int, fn func(worker, i int)) []quarantined {
	var quar []quarantined
	var mu sync.Mutex
	call := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				quar = append(quar, quarantined{index: i, msg: fmt.Sprint(r)})
				mu.Unlock()
			}
		}()
		fn(w, i)
	}
	workers := min(e.Cfg.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			call(0, i)
		}
		return quar
	}
	// ~4 chunks per worker balances claim overhead against tail imbalance
	// from uneven per-index work.
	chunk := max(1, n/(workers*4))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				for i := start; i < min(start+chunk, n); i++ {
					call(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(quar, func(a, b int) bool { return quar[a].index < quar[b].index })
	return quar
}
