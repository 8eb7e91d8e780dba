package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomModel builds a small random 0/1 model. Terms may repeat variables
// and carry zero coefficients.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		m.AddBinary("", math.Round(rng.Float64()*8-4)/2)
	}
	rows := rng.Intn(10)
	for r := 0; r < rows; r++ {
		k := 1 + rng.Intn(4)
		terms := make([]Term, 0, k)
		for t := 0; t < k; t++ {
			terms = append(terms, Term{
				Var:  VarID(rng.Intn(n)),
				Coef: float64(rng.Intn(7) - 3),
			})
		}
		op := Op(rng.Intn(3))
		rhs := float64(rng.Intn(5) - 1)
		m.AddConstraint("r", terms, op, rhs)
	}
	return m
}

func checkSolutionFeasible(t *testing.T, m *Model, sol Solution) {
	t.Helper()
	obj := 0.0
	for v := 0; v < m.NumVars(); v++ {
		if sol.Values[v] == 1 {
			obj += m.costs[v]
		}
	}
	if math.Abs(obj-sol.Objective) > 1e-6 {
		t.Fatalf("objective %v does not match values (%v)", sol.Objective, obj)
	}
	for _, c := range m.cons {
		lhs := 0.0
		for _, tm := range c.Terms {
			if sol.Values[tm.Var] == 1 {
				lhs += tm.Coef
			}
		}
		if !opHolds(lhs, c.Op, c.RHS) {
			t.Fatalf("solution violates %q: %v %v %v", c.Name, lhs, c.Op, c.RHS)
		}
	}
}

// TestSolveVsBruteForce pins Solve against exhaustive enumeration on random
// models: the decomposed and the monolithic (DisableDecomposition) solve
// must each reach brute force's status and optimal objective, with a
// feasible assignment worth what it claims.
func TestSolveVsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		feasible, bestObj, _ := bruteForce(m)
		for _, opt := range []Options{{}, {DisableDecomposition: true}} {
			sol := m.Solve(context.Background(), opt)
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("seed %d %+v: want Infeasible, got %v", seed, opt, sol.Status)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("seed %d %+v: want Optimal, got %v", seed, opt, sol.Status)
			}
			if math.Abs(sol.Objective-bestObj) > 1e-6 {
				t.Fatalf("seed %d %+v: objective %v, brute force %v", seed, opt, sol.Objective, bestObj)
			}
			checkSolutionFeasible(t, m, sol)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must be valid: %v", err)
	}
	if err := (Options{MaxNodes: 10}).Validate(); err != nil {
		t.Fatalf("a positive budget must be valid: %v", err)
	}
	if err := (Options{MaxNodes: -1}).Validate(); err == nil {
		t.Fatal("negative MaxNodes must be rejected")
	}
}

func TestSolveRejectsInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Solve must panic on invalid options")
		}
	}()
	m := NewModel()
	m.AddBinary("x", 1)
	m.Solve(context.Background(), Options{MaxNodes: -5})
}

// TestPresolveReductions solves handcrafted models of the shapes classic
// presolve reductions target — singleton chains, forcing rows,
// contradictory and duplicate rows, dual fixing — and checks their
// outcomes through the public interface.
func TestPresolveReductions(t *testing.T) {
	// Singleton equality forces a value; the rest of the chain follows.
	m := NewModel()
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", -1)
	m.AddConstraint("fix", []Term{{Var: a, Coef: 1}}, EQ, 1)
	m.AddConstraint("chain", []Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, LE, 1)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Values[a] != 1 || sol.Values[b] != 0 {
		t.Fatalf("singleton chain: %+v", sol)
	}

	// Forcing: sum of three >= 3 pins all to one.
	m = NewModel()
	vs := []VarID{m.AddBinary("", 1), m.AddBinary("", 1), m.AddBinary("", 1)}
	m.AddConstraint("all", []Term{{vs[0], 1}, {vs[1], 1}, {vs[2], 1}}, GE, 3)
	sol = m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != 3 {
		t.Fatalf("forcing: %+v", sol)
	}

	// Contradictory equality duplicates are infeasible.
	m = NewModel()
	x := m.AddBinary("", -1)
	y := m.AddBinary("", -1)
	m.AddConstraint("d1", []Term{{x, 1}, {y, 1}}, EQ, 1)
	m.AddConstraint("d2", []Term{{x, 1}, {y, 1}}, EQ, 2)
	if sol = m.Solve(context.Background(), Options{}); sol.Status != Infeasible {
		t.Fatalf("dup-eq contradiction: %v", sol.Status)
	}

	// Duplicate LE rows fold to the tightest RHS.
	m = NewModel()
	x = m.AddBinary("", -1)
	y = m.AddBinary("", -1)
	m.AddConstraint("loose", []Term{{x, 1}, {y, 1}}, LE, 2)
	m.AddConstraint("tight", []Term{{x, 1}, {y, 1}}, LE, 1)
	sol = m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != -1 {
		t.Fatalf("dup fold: %+v", sol)
	}

	// Dual fixing: unconstrained-direction variables go to their cheap
	// bound.
	m = NewModel()
	free := m.AddBinary("", -2)
	zero := m.AddBinary("", 0)
	m.AddConstraint("cap", []Term{{free, 1}}, LE, 1)
	sol = m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Values[free] != 1 || sol.Values[zero] != 0 {
		t.Fatalf("dual fix: %+v", sol)
	}
}

// TestFastPathBudgetsStillTrip: the node budget trips on a branching-heavy
// model (an odd cycle's LP relaxation is fractional at the root).
func TestFastPathBudgetsStillTrip(t *testing.T) {
	m := oddCycleModel(5)
	sol := m.Solve(context.Background(), Options{MaxNodes: 1})
	if sol.Status != LimitReached {
		t.Fatalf("MaxNodes=1 on fractional root: %+v", sol)
	}
}
