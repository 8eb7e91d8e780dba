package ilp

import "math"

// This file implements a dense two-phase primal simplex used as the
// relaxation solver inside branch & bound. Problems reaching it are the
// LP relaxations of single components under a node's fixings, so a dense
// tableau with Bland's anti-cycling rule is both simple and fast enough.

const (
	epsPivot    = 1e-9 // smallest pivot magnitude accepted
	epsFeas     = 1e-7 // feasibility / reduced-cost tolerance
	epsArtifact = 1e-6 // phase-1 objective above this => infeasible
)

type lpStatus uint8

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
)

// lpRow is one constraint a·x (op) b over the structural variables.
type lpRow struct {
	a  []float64
	op Op
	b  float64
}

// lpProblem is min c·x subject to rows and x >= 0. Upper bounds on
// variables must be encoded as rows by the caller.
type lpProblem struct {
	n    int // structural variables
	c    []float64
	rows []lpRow
}

// solve runs two-phase simplex. On lpOptimal it returns the optimal x
// (length n) and objective value.
func (p *lpProblem) solve() (lpStatus, []float64, float64) {
	m := len(p.rows)
	if m == 0 {
		// Unconstrained over x >= 0: minimum is at 0 unless some cost is
		// negative, in which case the LP is unbounded.
		x := make([]float64, p.n)
		for _, cj := range p.c {
			if cj < -epsFeas {
				return lpUnbounded, nil, 0
			}
		}
		return lpOptimal, x, 0
	}

	// Column layout: [0,n) structural, [n, n+numSlack) slack/surplus,
	// then artificials, then RHS last.
	numSlack := 0
	numArt := 0
	for _, r := range p.rows {
		b := r.b
		op := r.op
		// Normalise to b >= 0 by negating the row when needed.
		if b < 0 {
			op = flip(op)
		}
		switch op {
		case LE:
			numSlack++ // slack starts basic
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	cols := p.n + numSlack + numArt
	width := cols + 1 // + RHS

	tab := make([][]float64, m)
	basis := make([]int, m)
	slackAt := p.n
	artAt := p.n + numSlack
	artCols := make([]int, 0, numArt)

	for i, r := range p.rows {
		row := make([]float64, width)
		sign := 1.0
		op := r.op
		b := r.b
		if b < 0 {
			sign = -1
			b = -b
			op = flip(op)
		}
		for j := 0; j < p.n && j < len(r.a); j++ {
			row[j] = sign * r.a[j]
		}
		row[cols] = b
		switch op {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
		tab[i] = row
	}

	// Phase 1: minimise the sum of artificials.
	if numArt > 0 {
		obj := make([]float64, width)
		for _, j := range artCols {
			obj[j] = 1
		}
		// Price out the basic artificials.
		for i, bi := range basis {
			if obj[bi] != 0 {
				addScaled(obj, tab[i], -obj[bi])
			}
		}
		if st := runSimplex(tab, basis, obj, cols); st == lpUnbounded {
			// Phase 1 objective is bounded below by 0; unbounded here
			// means numeric trouble, treat as infeasible.
			return lpInfeasible, nil, 0
		}
		if -obj[cols] > epsArtifact {
			return lpInfeasible, nil, 0
		}
		// Drive any artificial still in the basis out of it (degenerate
		// at zero); if a row has no eligible pivot it is redundant.
		for i, bi := range basis {
			if !isArt(bi, p.n+numSlack) {
				continue
			}
			pivoted := false
			for j := 0; j < p.n+numSlack; j++ {
				if math.Abs(tab[i][j]) > epsPivot {
					pivot(tab, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it can't interfere.
				for j := range tab[i] {
					tab[i][j] = 0
				}
				basis[i] = -1
			}
		}
	}

	// Phase 2: original objective, artificial columns frozen at zero.
	obj := make([]float64, width)
	copy(obj, p.c)
	for i, bi := range basis {
		if bi >= 0 && obj[bi] != 0 {
			addScaled(obj, tab[i], -obj[bi])
		}
	}
	// Restrict pricing to structural+slack columns.
	if st := runSimplex(tab, basis, obj, p.n+numSlack); st == lpUnbounded {
		return lpUnbounded, nil, 0
	}

	x := make([]float64, p.n)
	for i, bi := range basis {
		if bi >= 0 && bi < p.n {
			x[bi] = tab[i][cols]
		}
	}
	objVal := 0.0
	for j := 0; j < p.n; j++ {
		objVal += p.c[j] * x[j]
	}
	return lpOptimal, x, objVal
}

func isArt(col, firstArt int) bool { return col >= firstArt }

func flip(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

func addScaled(dst, src []float64, k float64) {
	for j := range dst {
		dst[j] += k * src[j]
	}
}

// runSimplex performs primal simplex iterations on the tableau, pricing only
// columns < priceCols. The objective row is updated in place; its RHS entry
// holds the negated objective value. Bland's rule guarantees termination.
func runSimplex(tab [][]float64, basis []int, obj []float64, priceCols int) lpStatus {
	rhs := len(obj) - 1
	for iter := 0; ; iter++ {
		// Entering column: Bland — smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < priceCols; j++ {
			if obj[j] < -epsFeas {
				enter = j
				break
			}
		}
		if enter < 0 {
			return lpOptimal
		}
		// Leaving row: min ratio, ties by smallest basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := range tab {
			if basis[i] < 0 {
				continue
			}
			a := tab[i][enter]
			if a > epsPivot {
				ratio := tab[i][rhs] / a
				if ratio < best-epsFeas || (ratio < best+epsFeas && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return lpUnbounded
		}
		pivot(tab, basis, leave, enter)
		addScaled(obj, tab[leave], -obj[enter])
	}
}

// pivot makes column enter basic in row leave.
func pivot(tab [][]float64, basis []int, leave, enter int) {
	prow := tab[leave]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1 // cancel rounding
	for i := range tab {
		if i == leave {
			continue
		}
		k := tab[i][enter]
		if k != 0 {
			addScaled(tab[i], prow, -k)
			tab[i][enter] = 0
		}
	}
	basis[leave] = enter
}
