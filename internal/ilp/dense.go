package ilp

// This file is the seed solver, kept as the reference implementation the
// differential referees (TestFastPathParityRandom, FuzzILPSolve, the
// flow parity referee's seed selection) compare Solve against: the original
// union-find partition, then per component best-first branch & bound with
// a fresh dense two-phase tableau LP per node — no presolve, no sparse
// simplex, no pooled scratch. No production code calls it.

// SolveDense solves the model with the seed solver. Search order, branching
// rule, incumbent acceptance and budget accounting match Solve, so both
// walk the same tree shape. Invalid Options (see Options.Validate) cause a
// panic.
func (m *Model) SolveDense(opt Options) Solution {
	if sol, done := m.solveTrivial(opt); done {
		return sol
	}
	var comps []component
	if opt.DisableDecomposition {
		comps = []component{m.monolith()}
	} else {
		comps = m.componentsSeed()
	}
	bud := newBudget(opt)
	return m.solveComponents(comps, &bud, func(comp component) compSolution {
		return solveComponent(m, comp, &bud)
	})
}

// componentsSeed is the seed union-find partition: the same components in
// the same order as the arena partition of components.
func (m *Model) componentsSeed() []component {
	n := len(m.costs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for _, c := range m.cons {
		for i := 1; i < len(c.Terms); i++ {
			union(int(c.Terms[0].Var), int(c.Terms[i].Var))
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
	for ci, c := range m.cons {
		if len(c.Terms) == 0 {
			// Variable-free constraint: attached by appendVarFree.
			continue
		}
		r := find(int(c.Terms[0].Var))
		byRoot[r].cons = append(byRoot[r].cons, ci)
	}
	out := make([]component, 0, len(order))
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	return m.appendVarFree(out)
}

// solveComponent runs best-first branch & bound on one component.
func solveComponent(m *Model, comp component, bud *budget) compSolution {
	nv := len(comp.vars)
	local := make(map[VarID]int, nv)
	for i, v := range comp.vars {
		local[v] = i
	}
	costs := make([]float64, nv)
	for i, v := range comp.vars {
		costs[i] = m.costs[v]
	}

	// No variables: just check the attached constant constraints.
	if nv == 0 {
		for _, ci := range comp.cons {
			if !opHolds(0, m.cons[ci].Op, m.cons[ci].RHS) {
				return compSolution{status: Infeasible}
			}
		}
		return compSolution{status: Optimal}
	}

	relax := func(fixed []int8) (lpStatus, []float64, float64) {
		return relaxLP(m, comp, local, costs, fixed)
	}

	var best *compSolution
	// limited reports budget exhaustion, carrying the best incumbent found
	// so far (values non-nil) so callers can degrade gracefully instead of
	// discarding the whole search.
	limited := func() compSolution {
		if best != nil {
			return compSolution{status: LimitReached, values: best.values, objective: best.objective}
		}
		return compSolution{status: LimitReached}
	}

	root := &bbNode{fixed: make([]int8, nv)}
	for i := range root.fixed {
		root.fixed[i] = -1
	}
	st, x, obj := relax(root.fixed)
	if !bud.spend() {
		return limited()
	}
	switch st {
	case lpInfeasible:
		return compSolution{status: Infeasible}
	case lpUnbounded:
		// Cannot happen with 0<=x<=1 bounds; defensive.
		return compSolution{status: Infeasible}
	}
	root.bound = obj

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
			return limited()
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
