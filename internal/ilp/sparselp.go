package ilp

import "math"

// This file implements the fast-path LP relaxation kernel: a bounded-variable
// two-phase revised simplex over sparse rows. Unlike the dense tableau in
// lp.go it
//
//   - treats the 0 <= x <= 1 variable bounds natively, so no x <= 1 rows are
//     materialised (selection models are dominated by them);
//   - stores the constraint matrix sparsely (row lists plus a CSC index built
//     once per solve) and prices columns against a dual vector, so one
//     iteration costs O(m^2 + nnz) instead of O(rows * cols);
//   - maintains only an m x m basis inverse updated by product-form pivots.
//
// Bland's rule (smallest-index entering variable, smallest-index leaving tie
// break, bound flips counted as the entering variable itself) keeps the
// search anti-cycling. An iteration cap guards against numeric stalls; the
// caller falls back to the dense tableau when lpNumeric is returned, so the
// fast path never changes which models are solvable, only how fast.

// lpNumeric reports that the sparse kernel hit its iteration cap or a bad
// pivot; the caller should retry on the dense path.
const lpNumeric lpStatus = 0xff

// spRow is one sparse constraint row over the problem's column space.
type spRow struct {
	idx []int32
	a   []float64
	op  Op
	b   float64
}

// spProblem is min c·x subject to rows and 0 <= x <= 1 per structural
// column. Variable bounds are handled by the solver, not encoded as rows.
type spProblem struct {
	n    int
	c    []float64
	rows []spRow
}

// spScratch holds reusable buffers so branch & bound does not reallocate the
// basis inverse and work vectors on every node.
type spScratch struct {
	binv   []float64
	xB     []float64
	y      []float64
	w      []float64
	cost   []float64
	up     []float64
	sign   []float64
	basis  []int32
	vstat  []int8
	colPtr []int32
	colRow []int32
	colVal []float64
	next   []int32
	artAt  []int32
	slkAt  []int32
	auxRow []int32
	auxVal []float64
	x      []float64
}

func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growI8(buf *[]int8, n int) []int8 {
	if cap(*buf) < n {
		*buf = make([]int8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// nonbasic-at-lower / nonbasic-at-upper / basic variable states.
const (
	vsLower int8 = 0
	vsUpper int8 = 1
	vsBasic int8 = 2
)

// solveBounded runs two-phase bounded revised simplex. On lpOptimal it
// returns the structural solution (length n, values in [0,1]) and objective.
func (p *spProblem) solveBounded(scr *spScratch) (lpStatus, []float64, float64) {
	n, m := p.n, len(p.rows)
	if m == 0 {
		// Pure bound problem: each variable sits at whichever bound its
		// cost prefers (ties at zero go to the lower bound, matching the
		// dense path's initial slack basis).
		x := make([]float64, n)
		obj := 0.0
		for j := 0; j < n; j++ {
			if p.c[j] < 0 {
				x[j] = 1
				obj += p.c[j]
			}
		}
		return lpOptimal, x, obj
	}
	if scr == nil {
		scr = &spScratch{}
	}

	// Normalise every row to b >= 0 and lay out auxiliary columns:
	// [0,n) structural, then slack/surplus, then artificials.
	sign := growF(&scr.sign, m)
	slkAt := growI32(&scr.slkAt, m)
	artAt := growI32(&scr.artAt, m)
	nSlack, nArt := 0, 0
	for i := range p.rows {
		sign[i] = 1
		op := p.rows[i].op
		if p.rows[i].b < 0 {
			sign[i] = -1
			op = flip(op)
		}
		slkAt[i], artAt[i] = -1, -1
		switch op {
		case LE:
			slkAt[i] = int32(nSlack)
			nSlack++
		case GE:
			slkAt[i] = int32(nSlack)
			nSlack++
			artAt[i] = int32(nArt)
			nArt++
		case EQ:
			artAt[i] = int32(nArt)
			nArt++
		}
	}
	slack0 := n
	art0 := n + nSlack
	total := art0 + nArt

	up := growF(&scr.up, total)
	for j := 0; j < n; j++ {
		up[j] = 1
	}
	for j := slack0; j < total; j++ {
		up[j] = math.Inf(1)
	}

	basis := growI32(&scr.basis, m)
	vstat := growI8(&scr.vstat, total)
	for j := range vstat {
		vstat[j] = vsLower
	}
	xB := growF(&scr.xB, m)
	for i := range p.rows {
		b := sign[i] * p.rows[i].b
		xB[i] = b
		if artAt[i] >= 0 {
			basis[i] = int32(art0) + artAt[i]
		} else {
			basis[i] = int32(slack0) + slkAt[i]
		}
		vstat[basis[i]] = vsBasic
	}

	binv := growF(&scr.binv, m*m)
	for k := range binv {
		binv[k] = 0
	}
	for i := 0; i < m; i++ {
		binv[i*m+i] = 1
	}

	// CSC index over the structural columns, with the row sign applied.
	nnz := 0
	for i := range p.rows {
		nnz += len(p.rows[i].idx)
	}
	colPtr := growI32(&scr.colPtr, n+1)
	for j := range colPtr {
		colPtr[j] = 0
	}
	for i := range p.rows {
		for _, j := range p.rows[i].idx {
			colPtr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	colRow := growI32(&scr.colRow, nnz)
	colVal := growF(&scr.colVal, nnz)
	next := growI32(&scr.next, n)
	copy(next, colPtr[:n])
	for i := range p.rows {
		r := &p.rows[i]
		for k, j := range r.idx {
			at := next[j]
			next[j]++
			colRow[at] = int32(i)
			colVal[at] = sign[i] * r.a[k]
		}
	}

	y := growF(&scr.y, m)
	w := growF(&scr.w, m)
	cost := growF(&scr.cost, total)

	// Single-entry auxiliary columns: remember their row and coefficient.
	auxRow := growI32(&scr.auxRow, total-n)
	auxVal := growF(&scr.auxVal, total-n)
	for i := range p.rows {
		if slkAt[i] >= 0 {
			c := 1.0
			op := p.rows[i].op
			if sign[i] < 0 {
				op = flip(op)
			}
			if op == GE {
				c = -1
			}
			auxRow[slkAt[i]] = int32(i)
			auxVal[slkAt[i]] = c
		}
		if artAt[i] >= 0 {
			auxRow[int32(nSlack)+artAt[i]] = int32(i)
			auxVal[int32(nSlack)+artAt[i]] = 1
		}
	}

	maxIter := 100*(m+total) + 1000

	// phase runs primal iterations under the current cost vector. It
	// returns lpOptimal when no column prices out, lpUnbounded on an
	// uncapped ray, lpNumeric on iteration cap or degenerate pivot trouble.
	phase := func() lpStatus {
		for iter := 0; iter < maxIter; iter++ {
			// Duals: y = c_B * binv.
			for k := 0; k < m; k++ {
				y[k] = 0
			}
			for i := 0; i < m; i++ {
				cb := cost[basis[i]]
				if cb == 0 {
					continue
				}
				row := binv[i*m : i*m+m]
				for k := 0; k < m; k++ {
					y[k] += cb * row[k]
				}
			}
			// Entering column: Bland, smallest index first.
			enter := -1
			var dir float64
			for j := 0; j < total; j++ {
				if vstat[j] == vsBasic || up[j] < epsPivot && j >= n {
					continue // basic, or an auxiliary frozen at zero
				}
				d := cost[j]
				if j < n {
					for k := colPtr[j]; k < colPtr[j+1]; k++ {
						d -= y[colRow[k]] * colVal[k]
					}
				} else {
					d -= y[auxRow[j-n]] * auxVal[j-n]
				}
				if vstat[j] == vsLower && d < -epsFeas {
					enter, dir = j, 1
					break
				}
				if vstat[j] == vsUpper && d > epsFeas {
					enter, dir = j, -1
					break
				}
			}
			if enter < 0 {
				return lpOptimal
			}
			// w = binv * A_enter.
			for i := 0; i < m; i++ {
				w[i] = 0
			}
			if enter < n {
				for k := colPtr[enter]; k < colPtr[enter+1]; k++ {
					r, v := colRow[k], colVal[k]
					for i := 0; i < m; i++ {
						w[i] += binv[i*m+int(r)] * v
					}
				}
			} else {
				r, v := auxRow[enter-n], auxVal[enter-n]
				for i := 0; i < m; i++ {
					w[i] = binv[i*m+int(r)] * v
				}
			}
			// Ratio test with bound flips; Bland smallest-index tie break.
			tBest := up[enter] // distance to the entering var's far bound
			leave, leaveUpper := -1, false
			bland := enter
			for i := 0; i < m; i++ {
				dw := dir * w[i]
				if dw > epsPivot {
					t := xB[i] / dw
					if t < 0 {
						t = 0
					}
					if t < tBest-epsPivot || (t < tBest+epsPivot && int(basis[i]) < bland) {
						tBest, leave, leaveUpper, bland = t, i, false, int(basis[i])
					}
				} else if dw < -epsPivot {
					ub := up[basis[i]]
					if math.IsInf(ub, 1) {
						continue
					}
					t := (ub - xB[i]) / -dw
					if t < 0 {
						t = 0
					}
					if t < tBest-epsPivot || (t < tBest+epsPivot && int(basis[i]) < bland) {
						tBest, leave, leaveUpper, bland = t, i, true, int(basis[i])
					}
				}
			}
			if math.IsInf(tBest, 1) {
				return lpUnbounded
			}
			if leave < 0 {
				// Bound flip: the entering variable crosses to its other
				// bound without a basis change.
				for i := 0; i < m; i++ {
					xB[i] -= dir * tBest * w[i]
				}
				vstat[enter] ^= 1
				continue
			}
			piv := w[leave]
			if math.Abs(piv) < epsPivot {
				return lpNumeric
			}
			xq := tBest
			if vstat[enter] == vsUpper {
				xq = up[enter] - tBest
			}
			for i := 0; i < m; i++ {
				if i != leave {
					xB[i] -= dir * tBest * w[i]
				}
			}
			lv := basis[leave]
			if leaveUpper {
				vstat[lv] = vsUpper
			} else {
				vstat[lv] = vsLower
			}
			xB[leave] = xq
			basis[leave] = int32(enter)
			vstat[enter] = vsBasic
			// Product-form update of the basis inverse.
			rl := binv[leave*m : leave*m+m]
			inv := 1 / piv
			for k := range rl {
				rl[k] *= inv
			}
			for i := 0; i < m; i++ {
				if i == leave {
					continue
				}
				f := w[i]
				if f == 0 {
					continue
				}
				ri := binv[i*m : i*m+m]
				for k := range ri {
					ri[k] -= f * rl[k]
				}
			}
		}
		return lpNumeric
	}

	// Phase 1: minimise the sum of artificials.
	if nArt > 0 {
		for j := range cost {
			cost[j] = 0
		}
		for j := art0; j < total; j++ {
			cost[j] = 1
		}
		switch phase() {
		case lpUnbounded:
			// Bounded below by 0; a ray here is numeric trouble.
			return lpNumeric, nil, 0
		case lpNumeric:
			return lpNumeric, nil, 0
		}
		infeas := 0.0
		for i := 0; i < m; i++ {
			if int(basis[i]) >= art0 {
				infeas += xB[i]
			}
		}
		if infeas > epsArtifact {
			return lpInfeasible, nil, 0
		}
		// Freeze artificials at zero for phase 2. Basic artificials stay
		// basic at (numerically) zero; the [0,0] bound stops them moving.
		for j := art0; j < total; j++ {
			up[j] = 0
		}
	}

	// Phase 2: original objective.
	for j := range cost {
		cost[j] = 0
	}
	copy(cost[:n], p.c)
	switch phase() {
	case lpUnbounded:
		// Structural variables are bounded, so the objective cannot be
		// unbounded; an uncapped ray among slacks is numeric trouble.
		return lpNumeric, nil, 0
	case lpNumeric:
		return lpNumeric, nil, 0
	}

	x := growF(&scr.x, n)
	for j := 0; j < n; j++ {
		if vstat[j] == vsUpper {
			x[j] = 1
		} else {
			x[j] = 0
		}
	}
	for i := 0; i < m; i++ {
		if j := int(basis[i]); j < n {
			v := xB[i]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			x[j] = v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.c[j] * x[j]
	}
	return lpOptimal, x, obj
}
