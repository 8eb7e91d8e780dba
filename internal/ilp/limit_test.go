package ilp

import (
	"context"
	"testing"
)

// oddCycleModel builds a single-component packing model whose LP relaxation
// is fractional everywhere (odd cycle of pairwise exclusions), forcing real
// branch & bound work: maximise the number of selected vars subject to
// x_i + x_{i+1} <= 1 around a cycle of length n (n odd).
func oddCycleModel(n int) *Model {
	m := NewModel()
	vars := make([]VarID, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary("", -1) // minimise => prefer selecting
	}
	for i := 0; i < n; i++ {
		m.AddConstraint("edge", []Term{
			{Var: vars[i], Coef: 1},
			{Var: vars[(i+1)%n], Coef: 1},
		}, LE, 1)
	}
	return m
}

// noAssignment fails the test when a solution reports any variable set.
func noAssignment(t *testing.T, m *Model, sol Solution) {
	t.Helper()
	for v := 0; v < m.NumVars(); v++ {
		if sol.Value(VarID(v)) {
			t.Fatalf("%v solution reports var %d set", sol.Status, v)
		}
	}
}

// TestLimitReachedIncumbent sweeps node budgets over a branching-heavy
// model: every budget below the unlimited search's node count stops it
// with LimitReached and no assignment, and once the budget clears the full
// search the result is Optimal and matches the unlimited solve.
func TestLimitReachedIncumbent(t *testing.T) {
	m := oddCycleModel(15)
	ref := m.Solve(context.Background(), Options{})
	if ref.Status != Optimal {
		t.Fatalf("unlimited solve: %v", ref.Status)
	}
	for budget := 1; budget <= ref.Nodes+4; budget++ {
		sol := m.Solve(context.Background(), Options{MaxNodes: budget})
		if budget < ref.Nodes {
			if sol.Status != LimitReached {
				t.Fatalf("budget %d of %d nodes: status %v", budget, ref.Nodes, sol.Status)
			}
			noAssignment(t, m, sol)
			continue
		}
		if sol.Status != Optimal || sol.Objective != ref.Objective {
			t.Fatalf("budget %d: %v objective %v, want optimal %v", budget, sol.Status, sol.Objective, ref.Objective)
		}
	}
}

// TestLimitReachedTinyBudget: one node is never enough to finish a
// fractional-rooted search, and the truncated result reports no
// assignment through Value.
func TestLimitReachedTinyBudget(t *testing.T) {
	m := oddCycleModel(5)
	sol := m.Solve(context.Background(), Options{MaxNodes: 1})
	if sol.Status != LimitReached {
		t.Fatalf("status = %v, want LimitReached", sol.Status)
	}
	noAssignment(t, m, sol)
}

// TestLimitReachedDecomposedNoFalseIncumbent: when the budget dies in a
// non-final component, the solution reports no assignment — the solved
// components' optima do not leak through Value.
func TestLimitReachedDecomposedNoFalseIncumbent(t *testing.T) {
	m := NewModel()
	// Component 1: trivially solvable, solved before the budget dies.
	b := m.AddBinary("", -1)
	m.AddConstraint("c1", []Term{{Var: b, Coef: 1}}, LE, 1)
	// Component 2: an odd cycle that burns the whole budget.
	a := make([]VarID, 9)
	for i := range a {
		a[i] = m.AddBinary("", -1)
	}
	for i := range a {
		m.AddConstraint("c2", []Term{{Var: a[i], Coef: 1}, {Var: a[(i+1)%len(a)], Coef: 1}}, LE, 1)
	}
	// Component 3: trivially solvable, but never reached.
	c := m.AddBinary("", -1)
	m.AddConstraint("c3", []Term{{Var: c, Coef: 1}}, LE, 1)

	sol := m.Solve(context.Background(), Options{MaxNodes: 3})
	if sol.Status != LimitReached {
		t.Fatalf("status = %v, want LimitReached", sol.Status)
	}
	noAssignment(t, m, sol)
}
