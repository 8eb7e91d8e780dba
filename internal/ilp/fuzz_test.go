package ilp

import (
	"math"
	"testing"
)

// FuzzILPSolve decodes a byte string into a small 0/1 model and
// cross-checks the default fast path against brute-force enumeration, the
// presolve-off fast path, and the seed solver (SolveDense). Any status or optimal
// objective divergence, or an infeasible "optimal" assignment, fails.
func FuzzILPSolve(f *testing.F) {
	f.Add([]byte{3, 2, 10, 0, 1, 200, 2, 1, 60, 1, 2, 130})
	f.Add([]byte{1, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 3, 0, 1, 2, 100})
	f.Add([]byte{7, 9, 9, 9, 9, 9, 9, 9, 2, 80, 0, 1, 2, 3, 90, 4, 5, 6, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeFuzzModel(data)
		if !ok {
			return
		}
		feasible, bestObj, _ := bruteForce(m)

		fast := m.Solve(Options{})
		noPre := m.Solve(Options{disablePresolve: true})
		dense := m.SolveDense(Options{})

		if fast.Status != dense.Status || noPre.Status != dense.Status {
			t.Fatalf("status fast=%v noPresolve=%v dense=%v", fast.Status, noPre.Status, dense.Status)
		}
		if !feasible {
			if fast.Status != Infeasible {
				t.Fatalf("brute force infeasible, solver says %v", fast.Status)
			}
			return
		}
		if fast.Status != Optimal {
			t.Fatalf("brute force feasible, solver says %v", fast.Status)
		}
		for name, sol := range map[string]Solution{"fast": fast, "noPresolve": noPre, "dense": dense} {
			if math.Abs(sol.Objective-bestObj) > 1e-6 {
				t.Fatalf("%s objective %v, brute force %v", name, sol.Objective, bestObj)
			}
			obj := 0.0
			for v := 0; v < m.NumVars(); v++ {
				if sol.Values[v] == 1 {
					obj += m.costs[v]
				}
			}
			if math.Abs(obj-sol.Objective) > 1e-6 {
				t.Fatalf("%s assignment worth %v, claimed %v", name, obj, sol.Objective)
			}
			for _, c := range m.cons {
				lhs := 0.0
				for _, tm := range c.Terms {
					if sol.Values[tm.Var] == 1 {
						lhs += tm.Coef
					}
				}
				if !opHolds(lhs, c.Op, c.RHS) {
					t.Fatalf("%s violates %q: %v %v %v", name, c.Name, lhs, c.Op, c.RHS)
				}
			}
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
