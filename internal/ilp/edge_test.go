package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// Duplicate terms on the same variable within a constraint must accumulate.
func TestDuplicateTermsAccumulate(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", -1)
	// 0.6a + 0.6a <= 1  →  1.2a <= 1  →  a must be 0.
	m.AddConstraint("dup", []Term{{a, 0.6}, {a, 0.6}}, LE, 1)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Value(a) {
		t.Error("1.2a <= 1 should force a=0")
	}
}

// Negative RHS rows exercise the row-negation path of the simplex setup.
func TestNegativeRHS(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	// -a - b <= -1  ⇔  a + b >= 1.
	m.AddConstraint("neg", []Term{{a, -1}, {b, -1}}, LE, -1)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Objective != 1 {
		t.Errorf("objective %v, want 1 (exactly one of a,b)", sol.Objective)
	}
}

// Zero-coefficient terms are harmless.
func TestZeroCoefficients(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", -1)
	b := m.AddBinary("b", -1)
	m.AddConstraint("z", []Term{{a, 0}, {b, 1}}, LE, 0)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !sol.Value(a) || sol.Value(b) {
		t.Errorf("want a=1 (free), b=0 (constrained): %v", sol.Values)
	}
}

// Equality chains force specific totals; checks artificial-variable
// handling in phase 1 with several equality rows at once.
func TestEqualityChain(t *testing.T) {
	m := NewModel()
	vars := make([]VarID, 6)
	for i := range vars {
		vars[i] = m.AddBinary("", float64(i))
	}
	m.AddConstraint("eq1", []Term{{vars[0], 1}, {vars[1], 1}}, EQ, 1)
	m.AddConstraint("eq2", []Term{{vars[2], 1}, {vars[3], 1}}, EQ, 1)
	m.AddConstraint("eq3", []Term{{vars[4], 1}, {vars[5], 1}}, EQ, 2)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Cheapest: vars[0] (0), vars[2] (2), vars[4]+vars[5] (4+5).
	if want := 0.0 + 2 + 4 + 5; math.Abs(sol.Objective-want) > 1e-9 {
		t.Errorf("objective %v, want %v", sol.Objective, want)
	}
}

// Redundant equality rows (linearly dependent) must not break phase 1's
// artificial-elimination step.
func TestRedundantEqualities(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 2)
	m.AddConstraint("e1", []Term{{a, 1}, {b, 1}}, EQ, 1)
	m.AddConstraint("e2", []Term{{a, 2}, {b, 2}}, EQ, 2) // 2x the first
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != 1 {
		t.Errorf("sol = %+v", sol)
	}
}

// Contradictory equalities are infeasible.
func TestContradictoryEqualities(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	m.AddConstraint("e1", []Term{{a, 1}}, EQ, 1)
	m.AddConstraint("e2", []Term{{a, 1}}, EQ, 0)
	if sol := m.Solve(context.Background(), Options{}); sol.Status != Infeasible {
		t.Errorf("status %v, want infeasible", sol.Status)
	}
}

// Fractional coefficients with tight constraints force deep branching;
// cross-check against brute force on slightly larger models than the main
// random test uses.
func TestFractionalDeepBranching(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(4)
		m := NewModel()
		var terms []Term
		for v := 0; v < n; v++ {
			m.AddBinary("", -(0.5 + rng.Float64()))
			terms = append(terms, Term{VarID(v), 0.3 + rng.Float64()})
		}
		m.AddConstraint("knap", terms, LE, float64(n)/4)
		sol := m.Solve(context.Background(), Options{})
		feas, bf, _ := bruteForce(m)
		if !feas {
			t.Fatalf("trial %d: knapsack cannot be infeasible", trial)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-bf) > 1e-6 {
			t.Fatalf("trial %d: solver %v/%v, brute force %v", trial, sol.Status, sol.Objective, bf)
		}
	}
}

// GE constraints that force variables on, combined with conflicting LE
// rows, hit both slack directions at once.
func TestMixedDirections(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", 3)
	c := m.AddBinary("c", 4)
	m.AddConstraint("ge", []Term{{a, 1}, {b, 1}, {c, 1}}, GE, 2)
	m.AddConstraint("le", []Term{{b, 1}, {c, 1}}, LE, 1)
	// Must pick a plus the cheaper of b,c: 5 + 3.
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != 8 {
		t.Errorf("sol = %+v, want objective 8", sol)
	}
	if !sol.Value(a) || !sol.Value(b) || sol.Value(c) {
		t.Errorf("values = %v", sol.Values)
	}
}

// The solution must be reusable: solving twice gives identical results
// (the model is not mutated by Solve).
func TestSolveIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	m := NewModel()
	var terms []Term
	for v := 0; v < 10; v++ {
		m.AddBinary("", float64(rng.Intn(10)-5))
		terms = append(terms, Term{VarID(v), float64(rng.Intn(5))})
	}
	m.AddConstraint("", terms, LE, 7)
	s1 := m.Solve(context.Background(), Options{})
	s2 := m.Solve(context.Background(), Options{})
	if s1.Status != s2.Status || s1.Objective != s2.Objective {
		t.Errorf("repeat solve diverged: %+v vs %+v", s1, s2)
	}
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatalf("value %d differs across solves", i)
		}
	}
}
