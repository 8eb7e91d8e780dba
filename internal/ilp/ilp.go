// Package ilp is a from-scratch 0/1 integer linear programming solver — the
// repository's substitute for the CPLEX solver the CR&P paper uses. It
// solves
//
//	min  c·y
//	s.t. A·y (<=,>=,=) b,   y ∈ {0,1}^n
//
// by decomposition into independent components, presolve reductions, and
// best-first branch & bound with a sparse bounded-variable simplex as the
// LP relaxation per node (a dense two-phase tableau takes over on numeric
// trouble). Both of the paper's models — the ILP-based legalizer (Eq. 11)
// and the candidate-selection ILP (Eq. 12) — are small 0/1 programs, so the
// solver returns certified optima; node and time budgets allow the caller
// to model the scalability failure of the state-of-the-art baseline [18].
// SolveDense keeps the seed solver (dense tableau, no presolve) as the
// reference the differential tests compare Solve against; no production
// code calls it.
package ilp

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// fastScratchPool recycles solver workspaces across Solve calls: the
// legalizer's relocation models are tiny, so the workspace setup cost is a
// large fraction of each solve. Pooling is invisible to results — every
// buffer is (re)initialised before use.
var fastScratchPool = sync.Pool{New: func() any { return &fastScratch{} }}

// VarID identifies a model variable.
type VarID int

// Op is a constraint comparison operator.
type Op uint8

// Constraint operators.
const (
	LE Op = iota // a·y <= b
	GE           // a·y >= b
	EQ           // a·y == b
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Term is one coefficient of a constraint.
type Term struct {
	Var  VarID
	Coef float64
}

// Constraint is a linear constraint over binary variables.
type Constraint struct {
	Name  string
	Terms []Term
	Op    Op
	RHS   float64
}

// Model is a 0/1 ILP under construction. The zero value is usable.
type Model struct {
	costs []float64
	names []string
	cons  []Constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Reset empties the model for rebuilding, keeping its capacity. Constraint
// term slices added before the reset are owned by their callers and are not
// touched.
func (m *Model) Reset() {
	m.costs = m.costs[:0]
	m.names = m.names[:0]
	m.cons = m.cons[:0]
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.costs) }

// AddBinary adds a binary variable with the given objective cost and
// returns its ID.
func (m *Model) AddBinary(name string, cost float64) VarID {
	m.costs = append(m.costs, cost)
	m.names = append(m.names, name)
	return VarID(len(m.costs) - 1)
}

// AddConstraint adds a linear constraint. Terms referencing unknown
// variables cause a panic: that is always a bug in the model builder.
func (m *Model) AddConstraint(name string, terms []Term, op Op, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(m.costs) {
			panic(fmt.Sprintf("ilp: constraint %q references unknown var %d", name, t.Var))
		}
	}
	m.cons = append(m.cons, Constraint{Name: name, Terms: terms, Op: op, RHS: rhs})
}

// Status is the outcome of a Solve call.
type Status uint8

// Solve outcomes.
const (
	// Optimal means a certified optimal integer solution was found.
	Optimal Status = iota
	// Infeasible means no integer assignment satisfies the constraints.
	Infeasible
	// LimitReached means a node or time budget expired before the search
	// finished. Solution values hold the best incumbent if HasIncumbent.
	// An incumbent is only reported when it covers the whole model: on
	// decomposed models the budget must expire in the final component for
	// the partial searches to add up to a feasible full assignment —
	// otherwise HasIncumbent is false and Values must not be read.
	LimitReached
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "limit-reached"
	}
}

// Options tunes a Solve call. The zero value means: decompose, no limits,
// presolve, no cache.
type Options struct {
	// MaxNodes caps the total branch & bound nodes across all components;
	// 0 means unlimited. Negative values are rejected by Validate.
	MaxNodes int
	// TimeLimit caps wall-clock time; 0 means unlimited. Negative values
	// are rejected by Validate.
	TimeLimit time.Duration
	// DisableDecomposition solves the model as a single component. Used
	// to mirror monolithic formulations (the baseline [18] model).
	DisableDecomposition bool
	// disablePresolve keeps the sparse solver but skips the presolve
	// reductions; set only by this package's parity tests.
	disablePresolve bool
	// Cache, when non-nil, memoises certified solutions keyed by the
	// exact model encoding. It is only consulted on budget-less solves
	// (MaxNodes == 0 and TimeLimit == 0), so budget-dependent outcomes
	// never leak across calls; hits are bit-identical to a cold solve.
	Cache *SolveCache
}

// Validate rejects option values outside their documented domain. Solve
// panics on invalid options — like a malformed constraint, that is always
// a bug in the caller.
func (o Options) Validate() error {
	if o.MaxNodes < 0 {
		return fmt.Errorf("ilp: MaxNodes must be >= 0 (0 means unlimited), got %d", o.MaxNodes)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("ilp: TimeLimit must be >= 0 (0 means unlimited), got %v", o.TimeLimit)
	}
	return nil
}

// Solution is the result of a Solve call.
type Solution struct {
	Status       Status
	HasIncumbent bool
	Objective    float64
	Values       []int8 // 0/1 per variable; valid when HasIncumbent
	Nodes        int    // branch & bound nodes expanded
	Components   int    // presolve components solved
}

// Value returns the binary value of v in the solution.
func (s *Solution) Value(v VarID) bool {
	return s.HasIncumbent && s.Values[v] == 1
}

// Solve runs the solver. The model is not modified and may be solved again.
// Invalid Options (see Options.Validate) cause a panic.
func (m *Model) Solve(opt Options) Solution {
	if sol, done := m.solveTrivial(opt); done {
		return sol
	}
	fs := fastScratchPool.Get().(*fastScratch)
	defer fastScratchPool.Put(fs)

	// The solve cache is consulted only for budget-less solves: budgeted
	// outcomes depend on node order and wall-clock, and must never leak
	// across calls (checkpoint/resume relies on a cold cache producing
	// identical results).
	useCache := opt.Cache != nil && opt.MaxNodes == 0 && opt.TimeLimit == 0
	var key []byte
	var keyHash uint64
	if useCache {
		key = m.appendCacheKey(fs.keyBuf[:0], opt)
		fs.keyBuf = key
		keyHash = fnvHash(key)
		if cached, ok := opt.Cache.lookup(key, keyHash); ok {
			return cached
		}
	}

	// Stale lut entries are harmless: each component writes its own vars
	// before any of its constraints read them.
	lut := growI32(&fs.lut, len(m.costs))
	bud := newBudget(opt)
	sol := m.solveComponents(m.components(opt.DisableDecomposition, fs), &bud,
		func(comp component) compSolution {
			return solveComponentFast(m, comp, lut, &bud, opt, fs)
		})
	if useCache {
		// Budget-less, so the status is Optimal or Infeasible: certified.
		opt.Cache.store(key, keyHash, sol)
	}
	return sol
}

// solveTrivial validates opt (panicking on invalid options) and settles the
// variable-free model, whose constraints must simply hold at zero. done is
// false when the model needs a search.
func (m *Model) solveTrivial(opt Options) (sol Solution, done bool) {
	if err := opt.Validate(); err != nil {
		panic(err.Error())
	}
	if len(m.costs) > 0 {
		return Solution{}, false
	}
	for _, c := range m.cons {
		if !opHolds(0, c.Op, c.RHS) {
			return Solution{Status: Infeasible, Values: []int8{}}, true
		}
	}
	return Solution{Status: Optimal, HasIncumbent: true, Values: []int8{}}, true
}

// solveComponents is the component loop Solve and SolveDense share: it
// solves comps in order with solve, which spends from bud, and assembles
// the per-component optima into one Solution.
func (m *Model) solveComponents(comps []component, bud *budget, solve func(component) compSolution) Solution {
	sol := Solution{Values: make([]int8, len(m.costs)), Components: len(comps)}
	for ci, comp := range comps {
		cs := solve(comp)
		sol.Nodes = bud.nodes
		switch cs.status {
		case Infeasible:
			sol.Status = Infeasible
			sol.HasIncumbent = false
			return sol
		case LimitReached:
			sol.Status = LimitReached
			// The incumbent of the limited component completes a feasible
			// full assignment only when every other component has already
			// been solved (earlier components wrote their optima into
			// Values; later ones never ran).
			if cs.values != nil && ci == len(comps)-1 {
				for i, v := range comp.vars {
					sol.Values[v] = cs.values[i]
				}
				sol.Objective += cs.objective
				sol.HasIncumbent = true
			} else {
				sol.HasIncumbent = false
			}
			return sol
		}
		for i, v := range comp.vars {
			sol.Values[v] = cs.values[i]
		}
		sol.Objective += cs.objective
	}
	sol.Status = Optimal
	sol.HasIncumbent = true
	sol.Nodes = bud.nodes
	return sol
}

func opHolds(lhs float64, op Op, rhs float64) bool {
	switch op {
	case LE:
		return lhs <= rhs+epsFeas
	case GE:
		return lhs >= rhs-epsFeas
	default:
		return math.Abs(lhs-rhs) <= epsFeas
	}
}

// component is an independent sub-model found by presolve.
type component struct {
	vars []VarID // global IDs, sorted
	cons []int   // indices into m.cons
}

// components partitions variables and constraints into connected components
// of the variable/constraint incidence graph, using union-find. Variables
// that appear in no constraint each form a singleton component (solved by
// sign of their cost). With disable set the whole model is one component.
func (m *Model) components(disable bool, fs *fastScratch) []component {
	n := len(m.costs)
	if disable {
		return []component{m.monolith()}
	}
	parent := growI32(&fs.ufParent, n)
	idxOf := growI32(&fs.ufIdx, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range m.cons {
		for i := 1; i < len(c.Terms); i++ {
			parent[find(int32(c.Terms[0].Var))] = find(int32(c.Terms[i].Var))
		}
	}
	// Number components in first-seen (ascending variable) order — the same
	// order the seed's append-per-variable grouping produces.
	for i := range idxOf {
		idxOf[i] = -1
	}
	nc := 0
	for v := 0; v < n; v++ {
		if r := find(int32(v)); idxOf[r] < 0 {
			idxOf[r] = int32(nc)
			nc++
		}
	}
	// Count vars and live cons per component, then carve every comp.vars /
	// comp.cons out of two arenas: the whole partition costs O(n + nnz) and
	// at most three allocations, amortised to zero across pooled solves.
	liveCons := 0
	cnt := growI32(&fs.compCnt, 2*nc)
	for i := range cnt {
		cnt[i] = 0
	}
	varCnt, conCnt := cnt[:nc], cnt[nc:]
	for v := 0; v < n; v++ {
		varCnt[idxOf[find(int32(v))]]++
	}
	for _, c := range m.cons {
		if len(c.Terms) > 0 {
			conCnt[idxOf[find(int32(c.Terms[0].Var))]]++
			liveCons++
		}
	}
	varsArena := fs.growVarArena(n)
	consArena := fs.growConArena(liveCons)
	out := fs.growComps(nc)
	vOff, cOff := int32(0), int32(0)
	for ci := 0; ci < nc; ci++ {
		out[ci] = component{
			vars: varsArena[vOff : vOff : vOff+varCnt[ci]],
			cons: consArena[cOff : cOff : cOff+conCnt[ci]],
		}
		vOff += varCnt[ci]
		cOff += conCnt[ci]
	}
	for v := 0; v < n; v++ {
		ci := idxOf[find(int32(v))]
		out[ci].vars = append(out[ci].vars, VarID(v))
	}
	for ci, c := range m.cons {
		if len(c.Terms) == 0 {
			// Variable-free constraint: attached by appendVarFree.
			continue
		}
		r := find(int32(c.Terms[0].Var))
		out[idxOf[r]].cons = append(out[idxOf[r]].cons, ci)
	}
	return m.appendVarFree(out)
}

// monolith is the whole model as a single component.
func (m *Model) monolith() component {
	all := component{vars: make([]VarID, len(m.costs)), cons: make([]int, len(m.cons))}
	for i := range all.vars {
		all.vars[i] = VarID(i)
	}
	for i := range all.cons {
		all.cons[i] = i
	}
	return all
}

// appendVarFree attaches the model's variable-free constraints to a dummy
// component with no vars, checked once, so their infeasibility still
// surfaces.
func (m *Model) appendVarFree(comps []component) []component {
	var emptyCons []int
	for ci, c := range m.cons {
		if len(c.Terms) == 0 {
			emptyCons = append(emptyCons, ci)
		}
	}
	if len(emptyCons) > 0 {
		comps = append(comps, component{cons: emptyCons})
	}
	return comps
}

// growVarArena, growConArena and growComps hand out capacity-pinned buffers
// for the component partition.
func (fs *fastScratch) growVarArena(n int) []VarID {
	if cap(fs.compVars) < n {
		fs.compVars = make([]VarID, n)
	}
	return fs.compVars[:n]
}

func (fs *fastScratch) growConArena(n int) []int {
	if cap(fs.compCons) < n {
		fs.compCons = make([]int, n)
	}
	return fs.compCons[:n]
}

func (fs *fastScratch) growComps(n int) []component {
	if cap(fs.comps) < n {
		fs.comps = make([]component, n)
	}
	return fs.comps[:n]
}

// budget is shared search budget state across components.
type budget struct {
	maxNodes int
	deadline time.Time
	nodes    int
}

// newBudget returns opt's node and time budget, its clock starting now.
func newBudget(opt Options) budget {
	b := budget{maxNodes: opt.MaxNodes}
	if opt.TimeLimit > 0 {
		b.deadline = time.Now().Add(opt.TimeLimit)
	}
	return b
}

func (b *budget) spend() bool {
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		return false
	}
	// Checking the clock every node is cheap relative to an LP solve.
	if !b.deadline.IsZero() && b.nodes%64 == 0 && time.Now().After(b.deadline) {
		return false
	}
	return true
}

type compSolution struct {
	status    Status
	values    []int8
	objective float64
}

// bbNode is one branch & bound search node: a partial 0/1 fixing.
type bbNode struct {
	fixed []int8 // -1 free, 0, 1 per local var
	bound float64
}

// nodeHeap is a min-heap on LP bound (best-first search).
type nodeHeap []*bbNode

func (h nodeHeap) less(i, j int) bool { return h[i].bound < h[j].bound }

func (h *nodeHeap) push(n *bbNode) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *nodeHeap) pop() *bbNode {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && (*h)[l].bound < (*h)[s].bound {
			s = l
		}
		if r < last && (*h)[r].bound < (*h)[s].bound {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// mostFractional returns the index of the variable farthest from integer,
// or -1 when all values are integral.
func mostFractional(x []float64) int {
	best, idx := 1e-6, -1
	for i, v := range x {
		f := math.Abs(v - math.Round(v))
		if f > best {
			best = f
			idx = i
		}
	}
	return idx
}

// VarName returns the name a variable was created with.
func (m *Model) VarName(v VarID) string { return m.names[v] }
