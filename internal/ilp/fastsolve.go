package ilp

// This file is the fast-path component solver: presolve reductions, then
// best-first branch & bound over the reduced model with the sparse
// bounded-variable simplex as relaxation kernel. Search order, branching
// rule, incumbent acceptance and budget accounting deliberately mirror
// the seed solveComponent in dense.go so both paths walk the same tree
// shape; only the per-node LP machinery and the presolve shrinkage differ.

// fastScratch bundles the buffers reused across nodes and components of one
// Solve call. Instances are pooled across Solve calls (see fastScratchPool
// in ilp.go), so small models do not pay the fixed setup allocations.
type fastScratch struct {
	sp       spScratch
	rows     []spRow
	idxArena []int32
	aArena   []float64
	colOf    []int32
	c        []float64
	x        []float64

	// Per-Solve buffers (reused across components).
	lut      []int32
	pre      preModel
	ufParent []int32
	ufIdx    []int32
	compCnt  []int32
	compVars []VarID
	compCons []int
	comps    []component

	// Per-component buffers.
	preCosts  []float64
	preFixed  []int8
	preRows   []preRow
	preIdx    []int32
	preA      []float64
	freeOf    []int32
	freeVars  []int32
	costs     []float64
	baseRows  []spRow
	baseIdx   []int32
	baseA     []float64
	rootFixed []int8
}

func solveComponentFast(m *Model, comp component, lut []int32, bud *budget, opt Options, fs *fastScratch) compSolution {
	nv := len(comp.vars)
	if nv == 0 {
		for _, ci := range comp.cons {
			if !opHolds(0, m.cons[ci].Op, m.cons[ci].RHS) {
				return compSolution{status: Infeasible}
			}
		}
		return compSolution{status: Optimal}
	}
	for i, v := range comp.vars {
		lut[v] = int32(i)
	}

	pm := newPreModel(m, comp, lut, fs)
	if !opt.disablePresolve {
		pm.run()
		if pm.infeasible {
			return compSolution{status: Infeasible}
		}
	}

	// Reindex the surviving free variables densely.
	freeOf := growI32(&fs.freeOf, nv)
	freeVars := fs.freeVars[:0]
	for i := range pm.fixed {
		if pm.fixed[i] < 0 {
			freeOf[i] = int32(len(freeVars))
			freeVars = append(freeVars, int32(i))
		} else {
			freeOf[i] = -1
		}
	}
	fs.freeVars = freeVars[:0]
	nf := len(freeVars)

	// Base rows over free indices; still-fixed terms fold into the RHS.
	// Arena-backed like the node rows in relaxSparse: capacity is pinned to
	// the live nnz so appends never reallocate and subslices stay valid.
	nnzCap := 0
	for ri := range pm.rows {
		if !pm.rows[ri].dead {
			nnzCap += len(pm.rows[ri].idx)
		}
	}
	if cap(fs.baseIdx) < nnzCap {
		fs.baseIdx = make([]int32, 0, nnzCap)
	}
	if cap(fs.baseA) < nnzCap {
		fs.baseA = make([]float64, 0, nnzCap)
	}
	baseIdx, baseA := fs.baseIdx[:0], fs.baseA[:0]
	base := fs.baseRows[:0]
	nnzBase := 0
	for ri := range pm.rows {
		r := &pm.rows[ri]
		if r.dead {
			continue
		}
		row := spRow{op: r.op, b: r.b}
		start := len(baseIdx)
		for k := range r.idx {
			j := r.idx[k]
			if v := pm.fixed[j]; v >= 0 {
				row.b -= r.a[k] * float64(v)
				continue
			}
			baseIdx = append(baseIdx, freeOf[j])
			baseA = append(baseA, r.a[k])
		}
		row.idx, row.a = baseIdx[start:], baseA[start:]
		if len(row.idx) == 0 {
			if !opHolds(0, row.op, row.b) {
				return compSolution{status: Infeasible}
			}
			continue
		}
		nnzBase += len(row.idx)
		base = append(base, row)
	}
	fs.baseRows = base[:0]

	// assemble expands a free-variable assignment back over the component.
	assemble := func(freeVals []int8) []int8 {
		vals := make([]int8, nv)
		for i := range pm.fixed {
			if pm.fixed[i] > 0 {
				vals[i] = 1
			}
		}
		for f, i := range freeVars {
			if freeVals[f] == 1 {
				vals[i] = 1
			}
		}
		return vals
	}

	if nf == 0 {
		return compSolution{status: Optimal, values: assemble(nil), objective: pm.fixedCost}
	}

	costs := growF(&fs.costs, nf)
	for f, i := range freeVars {
		costs[f] = pm.costs[i]
	}

	relax := func(fixed []int8) (lpStatus, []float64, float64) {
		return relaxSparse(base, costs, fixed, fs, nnzBase)
	}

	// Best-first branch & bound; objectives below exclude pm.fixedCost,
	// which is added back on every exit path.
	var best *compSolution
	limited := func() compSolution {
		if best != nil {
			return compSolution{status: LimitReached, values: best.values, objective: best.objective + pm.fixedCost}
		}
		return compSolution{status: LimitReached}
	}

	root := &bbNode{fixed: growI8(&fs.rootFixed, nf)}
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
		// Cannot happen with bounded variables; defensive.
		return compSolution{status: Infeasible}
	}
	root.bound = obj

	consider := func(x []float64, obj float64) {
		fv := make([]int8, nf)
		for i, v := range x {
			if v > 0.5 {
				fv[i] = 1
			}
		}
		if best == nil || obj < best.objective-1e-12 {
			best = &compSolution{status: Optimal, values: assemble(fv), objective: obj}
		}
	}
	if frac := mostFractional(x); frac < 0 {
		consider(x, obj)
		out := *best
		out.objective += pm.fixedCost
		return out
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
	out := *best
	out.objective += pm.fixedCost
	return out
}

// relaxSparse solves the LP relaxation of the reduced component under a
// node's partial fixing: node-fixed variables are folded into row RHS, the
// remaining columns are renumbered densely, and the bounded simplex runs on
// the shrunken problem. A numeric bail-out retries on the dense tableau so
// the fast path never changes feasibility outcomes.
func relaxSparse(base []spRow, costs []float64, fixed []int8, fs *fastScratch, nnzBase int) (lpStatus, []float64, float64) {
	nf := len(costs)
	colOf := growI32(&fs.colOf, nf)
	ncol := 0
	fixedCost := 0.0
	for i := 0; i < nf; i++ {
		switch fixed[i] {
		case -1:
			colOf[i] = int32(ncol)
			ncol++
		case 1:
			fixedCost += costs[i]
			colOf[i] = -1
		default:
			colOf[i] = -1
		}
	}
	c := growF(&fs.c, ncol)
	for i := 0; i < nf; i++ {
		if colOf[i] >= 0 {
			c[colOf[i]] = costs[i]
		}
	}
	// Arena-backed row storage: capacities are pinned to the base nnz so
	// appends never reallocate and row subslices stay valid.
	if cap(fs.idxArena) < nnzBase {
		fs.idxArena = make([]int32, 0, nnzBase)
	}
	if cap(fs.aArena) < nnzBase {
		fs.aArena = make([]float64, 0, nnzBase)
	}
	idxA := fs.idxArena[:0]
	aA := fs.aArena[:0]
	rows := fs.rows[:0]
	for ri := range base {
		r := &base[ri]
		start := len(idxA)
		rhs := r.b
		for k, j := range r.idx {
			switch fixed[j] {
			case -1:
				idxA = append(idxA, colOf[j])
				aA = append(aA, r.a[k])
			case 1:
				rhs -= r.a[k]
			}
		}
		if len(idxA) == start {
			if !opHolds(0, r.op, rhs) {
				return lpInfeasible, nil, 0
			}
			continue
		}
		rows = append(rows, spRow{idx: idxA[start:], a: aA[start:], op: r.op, b: rhs})
	}
	fs.rows = rows[:0]

	p := spProblem{n: ncol, c: c, rows: rows}
	st, xr, obj := p.solveBounded(&fs.sp)
	if st == lpNumeric {
		st, xr, obj = denseFallback(ncol, c, rows)
	}
	if st != lpOptimal {
		return st, nil, 0
	}
	x := growF(&fs.x, nf)
	for i := 0; i < nf; i++ {
		switch fixed[i] {
		case -1:
			x[i] = xr[colOf[i]]
		case 1:
			x[i] = 1
		default:
			x[i] = 0
		}
	}
	return lpOptimal, x, obj + fixedCost
}

// denseFallback rebuilds the node LP for the dense tableau, with explicit
// x <= 1 rows, and solves it there.
func denseFallback(n int, c []float64, rows []spRow) (lpStatus, []float64, float64) {
	p := &lpProblem{n: n, c: append([]float64(nil), c...)}
	for ri := range rows {
		r := &rows[ri]
		a := make([]float64, n)
		for k, j := range r.idx {
			a[j] += r.a[k]
		}
		p.rows = append(p.rows, lpRow{a: a, op: r.op, b: r.b})
	}
	for j := 0; j < n; j++ {
		a := make([]float64, n)
		a[j] = 1
		p.rows = append(p.rows, lpRow{a: a, op: LE, b: 1})
	}
	return p.solve()
}
