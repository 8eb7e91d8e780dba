package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// bruteForce enumerates all 2^n assignments and returns (feasible, best
// objective, best assignment). Only usable for small n in tests.
func bruteForce(m *Model) (bool, float64, []int8) {
	n := m.NumVars()
	bestObj := math.Inf(1)
	var best []int8
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, c := range m.cons {
			lhs := 0.0
			for _, t := range c.Terms {
				if mask>>int(t.Var)&1 == 1 {
					lhs += t.Coef
				}
			}
			if !opHolds(lhs, c.Op, c.RHS) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		obj := 0.0
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				obj += m.costs[v]
			}
		}
		if obj < bestObj {
			bestObj = obj
			best = make([]int8, n)
			for v := 0; v < n; v++ {
				best[v] = int8(mask >> v & 1)
			}
		}
	}
	return best != nil, bestObj, best
}

func TestEmptyModel(t *testing.T) {
	m := NewModel()
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Errorf("empty model: %+v", sol)
	}
}

func TestVariableFreeInfeasibleConstraint(t *testing.T) {
	m := NewModel()
	m.AddBinary("x", 1)
	m.AddConstraint("impossible", nil, GE, 1) // 0 >= 1
	if sol := m.Solve(context.Background(), Options{}); sol.Status != Infeasible {
		t.Errorf("want infeasible, got %v", sol.Status)
	}
}

func TestUnconstrainedCosts(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", -3) // negative cost: should be 1
	b := m.AddBinary("b", 2)  // positive cost: should be 0
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !sol.Value(a) || sol.Value(b) {
		t.Errorf("values = %v", sol.Values)
	}
	if sol.Objective != -3 {
		t.Errorf("objective = %v", sol.Objective)
	}
}

func TestPickOnePerGroup(t *testing.T) {
	// The Eq. 12 structure: each cell picks exactly one candidate.
	m := NewModel()
	costs := [][]float64{{5, 2, 7}, {1, 4}, {9, 3, 3, 8}}
	var vars [][]VarID
	for g, cs := range costs {
		var row []VarID
		terms := []Term{}
		for i, c := range cs {
			v := m.AddBinary("", c)
			row = append(row, v)
			terms = append(terms, Term{v, 1})
			_ = i
			_ = g
		}
		m.AddConstraint("pick", terms, EQ, 1)
		vars = append(vars, row)
	}
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective != 2+1+3 {
		t.Errorf("objective = %v, want 6", sol.Objective)
	}
	if !sol.Value(vars[0][1]) || !sol.Value(vars[1][0]) {
		t.Error("wrong candidates selected")
	}
	// Decomposition should see 3 independent components.
	if sol.Components != 3 {
		t.Errorf("components = %d, want 3", sol.Components)
	}
}

func TestKnapsackNeedsBranching(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c<=2  == min -10a-6b-4c. LP relaxation is
	// integral here, so add a fractional-forcing weight constraint:
	// 5a+4b+3c <= 8 → LP wants a=1, b=0.75 → must branch.
	m := NewModel()
	a := m.AddBinary("a", -10)
	b := m.AddBinary("b", -6)
	c := m.AddBinary("c", -4)
	m.AddConstraint("w", []Term{{a, 5}, {b, 4}, {c, 3}}, LE, 8)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective != -14 { // a + c = 10+4, weight 8
		t.Errorf("objective = %v, want -14", sol.Objective)
	}
	if !sol.Value(a) || sol.Value(b) || !sol.Value(c) {
		t.Errorf("values = %v", sol.Values)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	m.AddConstraint("ge", []Term{{a, 1}, {b, 1}}, GE, 3) // max lhs is 2
	if sol := m.Solve(context.Background(), Options{}); sol.Status != Infeasible {
		t.Errorf("want infeasible, got %v", sol.Status)
	}
}

func TestEqualityConstraint(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", 3)
	c := m.AddBinary("c", 4)
	m.AddConstraint("eq", []Term{{a, 1}, {b, 1}, {c, 1}}, EQ, 2)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != 7 { // b + c
		t.Errorf("sol = %+v", sol)
	}
}

func TestConflictPair(t *testing.T) {
	// Two desirable vars that exclude each other (the candidate-overlap
	// constraint in Eq. 12 models).
	m := NewModel()
	a := m.AddBinary("a", -5)
	b := m.AddBinary("b", -4)
	cv := m.AddBinary("c", -1)
	m.AddConstraint("conflict", []Term{{a, 1}, {b, 1}}, LE, 1)
	sol := m.Solve(context.Background(), Options{})
	if sol.Status != Optimal || sol.Objective != -6 {
		t.Fatalf("sol = %+v", sol)
	}
	if !sol.Value(a) || sol.Value(b) || !sol.Value(cv) {
		t.Errorf("values = %v", sol.Values)
	}
}

func TestNodeLimit(t *testing.T) {
	// A model that needs several nodes; MaxNodes=1 must trip the limit.
	rng := rand.New(rand.NewSource(3))
	m := NewModel()
	var terms []Term
	for i := 0; i < 12; i++ {
		v := m.AddBinary("", -(1 + rng.Float64()))
		terms = append(terms, Term{v, 1 + rng.Float64()})
	}
	m.AddConstraint("w", terms, LE, 4)
	sol := m.Solve(context.Background(), Options{MaxNodes: 1})
	if sol.Status != LimitReached {
		t.Errorf("status = %v, want limit-reached", sol.Status)
	}
	full := m.Solve(context.Background(), Options{})
	if full.Status != Optimal {
		t.Errorf("unlimited solve: %v", full.Status)
	}
}

// cancelAfter is a context whose Err reports Canceled from its nth call
// on, so a test can stop a search at an exact node.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSolveStopsWhenContextDone: Solve checks its context at every node, so
// a context that turns Canceled at its nth check stops the search with
// LimitReached and no assignment after at most n nodes — where the same
// model, unbounded, needs more.
func TestSolveStopsWhenContextDone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewModel()
	var all []VarID
	for i := 0; i < 40; i++ {
		all = append(all, m.AddBinary("", -rng.Float64()))
	}
	for i := 0; i < 40; i++ {
		terms := []Term{}
		for j := 0; j < 10; j++ {
			terms = append(terms, Term{all[rng.Intn(len(all))], 1 + rng.Float64()})
		}
		m.AddConstraint("", terms, LE, 3)
	}
	full := m.Solve(context.Background(), Options{})
	if full.Status != Optimal {
		t.Fatalf("unbounded solve: %v", full.Status)
	}
	for _, n := range []int{1, 2, 5} {
		if full.Nodes <= n {
			t.Fatalf("vacuous: the model solves in %d nodes", full.Nodes)
		}
		sol := m.Solve(&cancelAfter{Context: context.Background(), n: n}, Options{})
		if sol.Status != LimitReached || sol.Nodes > n || sol.Value(all[0]) {
			t.Errorf("cancel at check %d: status %v after %d nodes", n, sol.Status, sol.Nodes)
		}
	}
}

func TestDisableDecomposition(t *testing.T) {
	m := NewModel()
	for g := 0; g < 3; g++ {
		a := m.AddBinary("", 1)
		b := m.AddBinary("", 2)
		m.AddConstraint("", []Term{{a, 1}, {b, 1}}, EQ, 1)
	}
	sep := m.Solve(context.Background(), Options{})
	mono := m.Solve(context.Background(), Options{DisableDecomposition: true})
	if sep.Components != 3 || mono.Components != 1 {
		t.Errorf("components: sep=%d mono=%d", sep.Components, mono.Components)
	}
	if sep.Objective != mono.Objective {
		t.Errorf("objectives differ: %v vs %v", sep.Objective, mono.Objective)
	}
}

// The legalizer-shaped model: cells × slots assignment with slot-capacity
// constraints; checked against brute force.
func TestLegalizerShapeVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nc := 2 + rng.Intn(2) // 2-3 cells
		ns := 3 + rng.Intn(3) // 3-5 slots
		m := NewModel()
		vars := make([][]VarID, nc)
		for c := 0; c < nc; c++ {
			terms := []Term{}
			for s := 0; s < ns; s++ {
				v := m.AddBinary("", float64(rng.Intn(20)))
				vars[c] = append(vars[c], v)
				terms = append(terms, Term{v, 1})
			}
			m.AddConstraint("one-pos", terms, EQ, 1)
		}
		for s := 0; s < ns; s++ {
			terms := []Term{}
			for c := 0; c < nc; c++ {
				terms = append(terms, Term{vars[c][s], 1})
			}
			m.AddConstraint("cap", terms, LE, 1)
		}
		sol := m.Solve(context.Background(), Options{})
		feas, bfObj, _ := bruteForce(m)
		if !feas {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver says %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if math.Abs(sol.Objective-bfObj) > 1e-6 {
			t.Fatalf("trial %d: solver %v, brute force %v", trial, sol.Objective, bfObj)
		}
	}
}

// Random small ILPs vs brute force — the core correctness property.
func TestRandomModelsVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []Op{LE, GE, EQ}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		m := NewModel()
		for v := 0; v < n; v++ {
			m.AddBinary("", float64(rng.Intn(21)-10))
		}
		nc := rng.Intn(6)
		for c := 0; c < nc; c++ {
			var terms []Term
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.5 {
					terms = append(terms, Term{VarID(v), float64(rng.Intn(9) - 4)})
				}
			}
			rhs := float64(rng.Intn(11) - 5)
			m.AddConstraint("", terms, ops[rng.Intn(3)], rhs)
		}
		sol := m.Solve(context.Background(), Options{})
		feas, bfObj, bf := bruteForce(m)
		if !feas {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver says %v (obj %v)", trial, sol.Status, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v (brute force obj %v)", trial, sol.Status, bfObj)
		}
		if math.Abs(sol.Objective-bfObj) > 1e-6 {
			t.Fatalf("trial %d: solver obj %v != brute force %v (bf sol %v, solver %v)",
				trial, sol.Objective, bfObj, bf, sol.Values)
		}
		// The reported assignment must actually be feasible and match the
		// reported objective.
		obj := 0.0
		for v := 0; v < n; v++ {
			if sol.Values[v] == 1 {
				obj += m.costs[v]
			}
		}
		if math.Abs(obj-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: reported objective %v but assignment costs %v", trial, sol.Objective, obj)
		}
		for _, c := range m.cons {
			lhs := 0.0
			for _, tm := range c.Terms {
				if sol.Values[tm.Var] == 1 {
					lhs += tm.Coef
				}
			}
			if !opHolds(lhs, c.Op, c.RHS) {
				t.Fatalf("trial %d: assignment violates %v %v %v (lhs=%v)", trial, c.Terms, c.Op, c.RHS, lhs)
			}
		}
	}
}

func TestAddConstraintPanicsOnUnknownVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on unknown var")
		}
	}()
	m := NewModel()
	m.AddConstraint("bad", []Term{{VarID(5), 1}}, LE, 1)
}

func TestVarNames(t *testing.T) {
	m := NewModel()
	b := m.AddBinary("beta", 0)
	a := m.AddBinary("alpha", 0)
	if m.VarName(a) != "alpha" || m.VarName(b) != "beta" {
		t.Error("VarName wrong")
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("Op.String wrong")
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		LimitReached.String() != "limit-reached" {
		t.Error("Status.String wrong")
	}
}
