// Package ilp is a from-scratch 0/1 integer linear programming solver — the
// repository's substitute for the CPLEX solver the CR&P paper uses. It
// solves
//
//	min  c·y
//	s.t. A·y (<=,>=,=) b,   y ∈ {0,1}^n
//
// by splitting the model into independent components (union-find over the
// variable/constraint incidence graph) and running best-first branch &
// bound on each, with a fresh dense two-phase simplex tableau as the LP
// relaxation of every node. It solves the median-ILP baseline [18]'s
// cluster models. The paper's Eq. 11 and Eq. 12 are solved by exact search
// (internal/legal's relocation, internal/crp's selection), with this
// solver, fed the same models, as their test oracle. The solver returns
// certified optima; a node budget and the caller's context bound a search,
// which then reports LimitReached and no assignment. The solver's own
// oracle is brute-force enumeration, in the tests.
package ilp

import (
	"context"
	"fmt"
	"math"
)

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

// VarName returns the name a variable was created with.
func (m *Model) VarName(v VarID) string { return m.names[v] }

// Status is the outcome of a Solve call.
type Status uint8

// Solve outcomes.
const (
	// Optimal means a certified optimal integer solution was found.
	Optimal Status = iota
	// Infeasible means no integer assignment satisfies the constraints.
	Infeasible
	// LimitReached means the node budget ran out, or the caller's context
	// was done, before the search finished. The solution carries no
	// assignment: Value reports false for every variable.
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

// Options tunes a Solve call. The zero value means: decompose, no limits.
type Options struct {
	// MaxNodes caps the total branch & bound nodes across all components;
	// 0 means unlimited. Negative values are rejected by Validate.
	MaxNodes int
	// DisableDecomposition solves the model as a single component. Used
	// to mirror monolithic formulations (the baseline [18] model).
	DisableDecomposition bool
}

// Validate rejects option values outside their documented domain. Solve
// panics on invalid options — like a malformed constraint, that is always
// a bug in the caller.
func (o Options) Validate() error {
	if o.MaxNodes < 0 {
		return fmt.Errorf("ilp: MaxNodes must be >= 0 (0 means unlimited), got %d", o.MaxNodes)
	}
	return nil
}

// Solution is the result of a Solve call. Objective and Values are
// meaningful only when Status is Optimal.
type Solution struct {
	Status     Status
	Objective  float64
	Values     []int8 // 0/1 per variable
	Nodes      int    // branch & bound nodes expanded
	Components int    // independent components solved
}

// Value returns the binary value of v in an Optimal solution, and false
// for any other status.
func (s *Solution) Value(v VarID) bool {
	return s.Status == Optimal && s.Values[v] == 1
}

// Solve runs the solver: the components in order, each by best-first
// branch & bound, all spending from one node budget. ctx is checked at
// every node; once it is done the search stops with LimitReached. The model
// is not modified and may be solved again. Invalid Options (see
// Options.Validate) cause a panic.
func (m *Model) Solve(ctx context.Context, opt Options) Solution {
	if err := opt.Validate(); err != nil {
		panic(err.Error())
	}
	var comps []component
	if opt.DisableDecomposition {
		comps = []component{m.monolith()}
	} else {
		comps = m.components()
	}
	bud := budget{ctx: ctx, maxNodes: opt.MaxNodes}
	sol := Solution{Values: make([]int8, len(m.costs)), Components: len(comps)}
	for _, comp := range comps {
		cs := solveComponent(m, comp, &bud)
		sol.Nodes = bud.nodes
		if cs.status != Optimal {
			sol.Status = cs.status
			return sol
		}
		for i, v := range comp.vars {
			sol.Values[v] = cs.values[i]
		}
		sol.Objective += cs.objective
	}
	sol.Status = Optimal
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

// component is an independent sub-model.
type component struct {
	vars []VarID // global IDs, sorted
	cons []int   // indices into m.cons
}

// components partitions variables and constraints into connected components
// of the variable/constraint incidence graph, using union-find, numbered in
// order of their lowest variable. Variables that appear in no constraint
// each form a singleton component.
func (m *Model) components() []component {
	n := len(m.costs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range m.cons {
		for i := 1; i < len(c.Terms); i++ {
			parent[find(int(c.Terms[0].Var))] = find(int(c.Terms[i].Var))
		}
	}
	byRoot := map[int]*component{}
	var order []int
	for v := 0; v < n; v++ {
		r := find(v)
		comp, ok := byRoot[r]
		if !ok {
			comp = &component{}
			byRoot[r] = comp
			order = append(order, r)
		}
		comp.vars = append(comp.vars, VarID(v))
	}
	var varFree []int
	for ci, c := range m.cons {
		if len(c.Terms) == 0 {
			varFree = append(varFree, ci)
			continue
		}
		r := find(int(c.Terms[0].Var))
		byRoot[r].cons = append(byRoot[r].cons, ci)
	}
	out := make([]component, 0, len(order)+1)
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	// Variable-free constraints go to a last component with no vars,
	// checked once, so their infeasibility still surfaces.
	if len(varFree) > 0 {
		out = append(out, component{cons: varFree})
	}
	return out
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

// budget is shared search budget state across components.
type budget struct {
	ctx      context.Context
	maxNodes int
	nodes    int
}

// spend counts one node and reports whether the search may go on. Checking
// the context every node is cheap relative to an LP solve.
func (b *budget) spend() bool {
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		return false
	}
	return b.ctx.Err() == nil
}

type compSolution struct {
	status    Status
	values    []int8
	objective float64
}

// solveComponent runs best-first branch & bound on one component.
func solveComponent(m *Model, comp component, bud *budget) compSolution {
	nv := len(comp.vars)
	// No variables: just check the attached constant constraints.
	if nv == 0 {
		for _, ci := range comp.cons {
			if !opHolds(0, m.cons[ci].Op, m.cons[ci].RHS) {
				return compSolution{status: Infeasible}
			}
		}
		return compSolution{status: Optimal}
	}

	local := make(map[VarID]int, nv)
	costs := make([]float64, nv)
	for i, v := range comp.vars {
		local[v] = i
		costs[i] = m.costs[v]
	}
	relax := func(fixed []int8) (lpStatus, []float64, float64) {
		return relaxLP(m, comp, local, costs, fixed)
	}

	root := &bbNode{fixed: make([]int8, nv)}
	for i := range root.fixed {
		root.fixed[i] = -1
	}
	st, x, obj := relax(root.fixed)
	if !bud.spend() {
		return compSolution{status: LimitReached}
	}
	if st != lpOptimal {
		// lpUnbounded cannot happen with 0<=x<=1 bounds; defensive.
		return compSolution{status: Infeasible}
	}
	root.bound = obj

	var best *compSolution
	consider := func(x []float64, obj float64) {
		vals := make([]int8, nv)
		for i, v := range x {
			if v > 0.5 {
				vals[i] = 1
			}
		}
		if best == nil || obj < best.objective-1e-12 {
			best = &compSolution{status: Optimal, values: vals, objective: obj}
		}
	}
	if frac := mostFractional(x); frac < 0 {
		consider(x, obj)
		return *best
	}

	heap := nodeHeap{}
	heap.push(root)
	for len(heap) > 0 {
		node := heap.pop()
		if best != nil && node.bound >= best.objective-1e-9 {
			continue // pruned by incumbent
		}
		st, x, obj := relax(node.fixed)
		if !bud.spend() {
			return compSolution{status: LimitReached}
		}
		if st != lpOptimal {
			continue
		}
		if best != nil && obj >= best.objective-1e-9 {
			continue
		}
		branch := mostFractional(x)
		if branch < 0 {
			consider(x, obj)
			continue
		}
		for _, val := range [2]int8{0, 1} {
			child := &bbNode{fixed: append([]int8(nil), node.fixed...), bound: obj}
			child.fixed[branch] = val
			heap.push(child)
		}
	}
	if best == nil {
		return compSolution{status: Infeasible}
	}
	return *best
}

// relaxLP builds and solves the LP relaxation of a component under the
// node's partial fixing. Fixed variables are folded into constraint RHS.
func relaxLP(m *Model, comp component, local map[VarID]int, costs []float64, fixed []int8) (lpStatus, []float64, float64) {
	nv := len(comp.vars)
	freeIdx := make([]int, 0, nv) // local indices of free vars
	colOf := make([]int, nv)
	for i := range colOf {
		colOf[i] = -1
	}
	fixedCost := 0.0
	for i := 0; i < nv; i++ {
		switch fixed[i] {
		case -1:
			colOf[i] = len(freeIdx)
			freeIdx = append(freeIdx, i)
		case 1:
			fixedCost += costs[i]
		}
	}
	nf := len(freeIdx)
	p := &lpProblem{n: nf, c: make([]float64, nf)}
	for col, i := range freeIdx {
		p.c[col] = costs[i]
	}
	for _, ci := range comp.cons {
		c := m.cons[ci]
		a := make([]float64, nf)
		rhs := c.RHS
		hasFree := false
		for _, t := range c.Terms {
			li := local[t.Var]
			switch fixed[li] {
			case -1:
				a[colOf[li]] += t.Coef
				hasFree = true
			case 1:
				rhs -= t.Coef
			}
		}
		if !hasFree {
			if !opHolds(0, c.Op, rhs) {
				return lpInfeasible, nil, 0
			}
			continue
		}
		p.rows = append(p.rows, lpRow{a: a, op: c.Op, b: rhs})
	}
	// Upper bounds x <= 1 per free variable — except where an equality
	// constraint with unit coefficients and RHS <= 1 already implies the
	// bound (the ubiquitous "pick exactly one" rows), which keeps the
	// tableau small on assignment-shaped models.
	implied := make([]bool, nf)
	for _, ci := range comp.cons {
		c := m.cons[ci]
		if c.Op != EQ || c.RHS > 1+epsFeas {
			continue
		}
		allUnitNonneg := true
		for _, t := range c.Terms {
			if t.Coef < 0 {
				allUnitNonneg = false
				break
			}
		}
		if !allUnitNonneg {
			continue
		}
		for _, t := range c.Terms {
			if t.Coef >= 1-epsFeas {
				if li := local[t.Var]; fixed[li] == -1 {
					implied[colOf[li]] = true
				}
			}
		}
	}
	for col := 0; col < nf; col++ {
		if implied[col] {
			continue
		}
		a := make([]float64, nf)
		a[col] = 1
		p.rows = append(p.rows, lpRow{a: a, op: LE, b: 1})
	}
	st, xf, obj := p.solve()
	if st != lpOptimal {
		return st, nil, 0
	}
	x := make([]float64, nv)
	for i := 0; i < nv; i++ {
		switch fixed[i] {
		case -1:
			x[i] = xf[colOf[i]]
		case 1:
			x[i] = 1
		}
	}
	return lpOptimal, x, obj + fixedCost
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
