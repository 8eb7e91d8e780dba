package ilp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomModel builds a small random 0/1 model. Terms may repeat variables
// and carry zero coefficients so normalisation paths get exercised.
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

// TestFastPathParityRandom is the differential ladder over random models:
// Solve, Solve without presolve, and the seed solver (SolveDense) must
// agree on status and optimal objective, and every claimed optimum must be
// feasible.
func TestFastPathParityRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		fast := m.Solve(Options{})
		noPre := m.Solve(Options{disablePresolve: true})
		dense := m.SolveDense(Options{})

		if fast.Status != dense.Status || noPre.Status != dense.Status {
			t.Fatalf("seed %d: status fast=%v noPresolve=%v dense=%v",
				seed, fast.Status, noPre.Status, dense.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		if math.Abs(fast.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("seed %d: objective fast=%v dense=%v", seed, fast.Objective, dense.Objective)
		}
		if math.Abs(noPre.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("seed %d: objective noPresolve=%v dense=%v", seed, noPre.Objective, dense.Objective)
		}
		if fast.Components != dense.Components {
			t.Fatalf("seed %d: components fast=%d dense=%d", seed, fast.Components, dense.Components)
		}
		checkSolutionFeasible(t, m, fast)
		checkSolutionFeasible(t, m, noPre)
		checkSolutionFeasible(t, m, dense)
	}
}

// TestFastPathVsBruteForce pins the fast path against exhaustive
// enumeration on its own, independent of SolveDense.
func TestFastPathVsBruteForce(t *testing.T) {
	for seed := int64(1000); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		feasible, bestObj, _ := bruteForce(m)
		sol := m.Solve(Options{})
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("seed %d: want Infeasible, got %v", seed, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("seed %d: want Optimal, got %v", seed, sol.Status)
		}
		if math.Abs(sol.Objective-bestObj) > 1e-6 {
			t.Fatalf("seed %d: objective %v, brute force %v", seed, sol.Objective, bestObj)
		}
		checkSolutionFeasible(t, m, sol)
	}
}

// TestSparseLPMatchesDense compares the bounded revised simplex against the
// dense tableau (with explicit bound rows) on random LP relaxations.
func TestSparseLPMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		sp := spProblem{n: n, c: make([]float64, n)}
		dn := lpProblem{n: n, c: make([]float64, n)}
		for j := 0; j < n; j++ {
			c := math.Round(rng.Float64()*8-4) / 2
			sp.c[j] = c
			dn.c[j] = c
		}
		rows := rng.Intn(7)
		for r := 0; r < rows; r++ {
			k := 1 + rng.Intn(3)
			row := spRow{op: Op(rng.Intn(3)), b: float64(rng.Intn(5) - 1)}
			a := make([]float64, n)
			for t := 0; t < k; t++ {
				j := rng.Intn(n)
				c := float64(rng.Intn(7) - 3)
				if c == 0 {
					continue
				}
				row.idx = append(row.idx, int32(j))
				row.a = append(row.a, c)
				a[j] += c
			}
			if len(row.idx) == 0 {
				continue
			}
			sp.rows = append(sp.rows, row)
			dn.rows = append(dn.rows, lpRow{a: a, op: row.op, b: row.b})
		}
		for j := 0; j < n; j++ {
			a := make([]float64, n)
			a[j] = 1
			dn.rows = append(dn.rows, lpRow{a: a, op: LE, b: 1})
		}
		stS, xS, objS := sp.solveBounded(nil)
		stD, _, objD := dn.solve()
		if stS == lpNumeric {
			continue // dense fallback would cover this in production
		}
		if stS != stD {
			t.Fatalf("seed %d: status sparse=%v dense=%v", seed, stS, stD)
		}
		if stS != lpOptimal {
			continue
		}
		if math.Abs(objS-objD) > 1e-6 {
			t.Fatalf("seed %d: objective sparse=%v dense=%v", seed, objS, objD)
		}
		for j, v := range xS {
			if v < -1e-7 || v > 1+1e-7 {
				t.Fatalf("seed %d: x[%d]=%v out of bounds", seed, j, v)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must be valid: %v", err)
	}
	if err := (Options{MaxNodes: 10, TimeLimit: time.Second}).Validate(); err != nil {
		t.Fatalf("positive budgets must be valid: %v", err)
	}
	if err := (Options{MaxNodes: -1}).Validate(); err == nil {
		t.Fatal("negative MaxNodes must be rejected")
	}
	if err := (Options{TimeLimit: -time.Second}).Validate(); err == nil {
		t.Fatal("negative TimeLimit must be rejected")
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
	m.Solve(Options{MaxNodes: -5})
}

// TestSolveCacheBitIdentical: a warm cache hit must return exactly what the
// cold solve returned, and budgeted solves must bypass the cache entirely.
func TestSolveCacheBitIdentical(t *testing.T) {
	cache := NewSolveCache(0)
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		cold := m.Solve(Options{Cache: cache})
		warm := m.Solve(Options{Cache: cache})
		if cold.Status != warm.Status || cold.HasIncumbent != warm.HasIncumbent ||
			cold.Objective != warm.Objective || cold.Nodes != warm.Nodes ||
			cold.Components != warm.Components {
			t.Fatalf("seed %d: cold %+v != warm %+v", seed, cold, warm)
		}
		if !bytes.Equal(int8Bytes(cold.Values), int8Bytes(warm.Values)) {
			t.Fatalf("seed %d: cached values differ", seed)
		}
	}
	hits, misses := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", hits, misses)
	}

	// Budgeted solves must not read or write the cache.
	m := oddCycleModel(9)
	before, _ := cache.Stats()
	limited := m.Solve(Options{MaxNodes: 1, Cache: cache})
	if limited.Status != LimitReached {
		t.Fatalf("budgeted solve: %v", limited.Status)
	}
	after, _ := cache.Stats()
	if after != before {
		t.Fatal("budgeted solve touched the cache")
	}
}

func int8Bytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}

// TestPresolveReductions checks the individual reductions on handcrafted
// models through the public interface.
func TestPresolveReductions(t *testing.T) {
	// Singleton equality forces a value; the rest of the chain follows.
	m := NewModel()
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", -1)
	m.AddConstraint("fix", []Term{{Var: a, Coef: 1}}, EQ, 1)
	m.AddConstraint("chain", []Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, LE, 1)
	sol := m.Solve(Options{})
	if sol.Status != Optimal || sol.Values[a] != 1 || sol.Values[b] != 0 {
		t.Fatalf("singleton chain: %+v", sol)
	}
	if sol.Nodes != 0 {
		t.Fatalf("fully presolved model should need no nodes, got %d", sol.Nodes)
	}

	// Forcing: sum of three >= 3 pins all to one.
	m = NewModel()
	vs := []VarID{m.AddBinary("", 1), m.AddBinary("", 1), m.AddBinary("", 1)}
	m.AddConstraint("all", []Term{{vs[0], 1}, {vs[1], 1}, {vs[2], 1}}, GE, 3)
	sol = m.Solve(Options{})
	if sol.Status != Optimal || sol.Objective != 3 {
		t.Fatalf("forcing: %+v", sol)
	}

	// Contradictory equality duplicates are infeasible.
	m = NewModel()
	x := m.AddBinary("", -1)
	y := m.AddBinary("", -1)
	m.AddConstraint("d1", []Term{{x, 1}, {y, 1}}, EQ, 1)
	m.AddConstraint("d2", []Term{{x, 1}, {y, 1}}, EQ, 2)
	if sol = m.Solve(Options{}); sol.Status != Infeasible {
		t.Fatalf("dup-eq contradiction: %v", sol.Status)
	}
	if sol = m.SolveDense(Options{}); sol.Status != Infeasible {
		t.Fatalf("dup-eq contradiction (dense): %v", sol.Status)
	}

	// Duplicate LE rows fold to the tightest RHS.
	m = NewModel()
	x = m.AddBinary("", -1)
	y = m.AddBinary("", -1)
	m.AddConstraint("loose", []Term{{x, 1}, {y, 1}}, LE, 2)
	m.AddConstraint("tight", []Term{{x, 1}, {y, 1}}, LE, 1)
	sol = m.Solve(Options{})
	if sol.Status != Optimal || sol.Objective != -1 {
		t.Fatalf("dup fold: %+v", sol)
	}

	// Dual fixing: unconstrained-direction variables go to their cheap
	// bound without search.
	m = NewModel()
	free := m.AddBinary("", -2)
	zero := m.AddBinary("", 0)
	m.AddConstraint("cap", []Term{{free, 1}}, LE, 1)
	sol = m.Solve(Options{})
	if sol.Status != Optimal || sol.Values[free] != 1 || sol.Values[zero] != 0 {
		t.Fatalf("dual fix: %+v", sol)
	}
}

// TestFastPathBudgetsStillTrip: presolve must not defeat the node budget
// contract on branching-heavy models (odd cycles resist every reduction).
func TestFastPathBudgetsStillTrip(t *testing.T) {
	m := oddCycleModel(5)
	sol := m.Solve(Options{MaxNodes: 1})
	if sol.Status != LimitReached || sol.HasIncumbent {
		t.Fatalf("MaxNodes=1 on fractional root: %+v", sol)
	}
}
