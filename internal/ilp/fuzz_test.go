package ilp

import (
	"context"
	"math"
	"testing"
)

// FuzzILPSolve decodes a byte string into a small 0/1 model and checks the
// decomposed and the monolithic (DisableDecomposition) solve against
// brute-force enumeration. Any status or optimal objective divergence, or
// an infeasible "optimal" assignment, fails.
func FuzzILPSolve(f *testing.F) {
	f.Add([]byte{3, 2, 10, 0, 1, 200, 2, 1, 60, 1, 2, 130})
	f.Add([]byte{1, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 3, 0, 1, 2, 100})
	f.Add([]byte{7, 9, 9, 9, 9, 9, 9, 9, 2, 80, 0, 1, 2, 3, 90, 4, 5, 6, 0})
	// The [18] baseline's cluster shape: three cells with a stay option
	// (cost 0) and cheaper moves each, a pick-one EQ 1 row per cell and
	// pairwise LE 1 exclusions between moves onto shared sites.
	f.Add([]byte{7, 4, 2, 1, 4, 0, 4, 3, 2,
		11, 32, 33, 34, 0, 11, 35, 36, 0, 11, 37, 38, 39, 0,
		9, 33, 36, 0, 9, 34, 36, 0, 9, 36, 39, 0, 9, 34, 38, 0})
	// The Eq. 12 selection shape: two cells, each with a stay option, both
	// able to move to one shared slot (an LE 1 exclusion); the two optima
	// tie at -2.
	f.Add([]byte{4, 4, 1, 4, 0, 3, 11, 35, 36, 0, 11, 37, 38, 39, 0, 9, 36, 38, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeFuzzModel(data)
		if !ok {
			return
		}
		feasible, bestObj, _ := bruteForce(m)
		for _, opt := range []Options{{}, {DisableDecomposition: true}} {
			sol := m.Solve(context.Background(), opt)
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("%+v: brute force infeasible, solver says %v", opt, sol.Status)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("%+v: brute force feasible, solver says %v", opt, sol.Status)
			}
			if math.Abs(sol.Objective-bestObj) > 1e-6 {
				t.Fatalf("%+v: objective %v, brute force %v", opt, sol.Objective, bestObj)
			}
			checkSolutionFeasible(t, m, sol)
		}
	})
}

// decodeFuzzModel maps fuzz bytes onto a bounded model: byte 0 picks the
// variable count (1..8), then per variable one cost byte, then repeated
// constraint blocks: op/rhs byte followed by up to 4 term bytes terminated
// by 0 or end of input. Coefficients and RHS stay small so brute force and
// the LP tolerances are meaningful.
func decodeFuzzModel(data []byte) (*Model, bool) {
	if len(data) < 2 {
		return nil, false
	}
	n := int(data[0])%8 + 1
	if len(data) < 1+n {
		return nil, false
	}
	m := NewModel()
	for i := 0; i < n; i++ {
		m.AddBinary("", float64(int(data[1+i])%9-4)/2)
	}
	pos := 1 + n
	for rows := 0; pos < len(data) && rows < 12; rows++ {
		head := data[pos]
		pos++
		op := Op(head % 3)
		rhs := float64(int(head/3)%7 - 2)
		var terms []Term
		for len(terms) < 4 && pos < len(data) {
			tb := data[pos]
			pos++
			if tb == 0 {
				break
			}
			terms = append(terms, Term{
				Var:  VarID(int(tb) % n),
				Coef: float64(int(tb/8)%7 - 3),
			})
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("f", terms, op, rhs)
	}
	return m, true
}
