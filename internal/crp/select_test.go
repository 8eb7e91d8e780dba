package crp

import (
	"context"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
)

// Unit tests for the Eq. 12 selection ILP over hand-built candidate sets,
// independent of the full pipeline.

// selFixture builds an engine over a small design without routing (the
// selection logic only needs the design geometry).
func selFixture(t *testing.T) *Engine {
	t.Helper()
	d, g, r := fixture(t, 120, 80, 55)
	return New(d, g, r, smallConfig(1))
}

func TestSelectPrefersCheapestCandidate(t *testing.T) {
	e := selFixture(t)
	c0 := e.D.Cells[0]
	cur := c0.Pos
	alt := findFreeSlotFor(t, e, 0)
	cands := [][]candidate{{
		{cell: 0, pos: cur, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 4},
	}}
	chosen, sol, _ := e.selectCandidates(context.Background(), cands)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if len(chosen) != 1 || chosen[0].pos != alt {
		t.Fatalf("chose %+v, want the cheap move", chosen)
	}
}

func TestSelectKeepsCurrentWhenMovesAreWorse(t *testing.T) {
	e := selFixture(t)
	alt := findFreeSlotFor(t, e, 0)
	cands := [][]candidate{{
		{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 3},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 5},
	}}
	chosen, _, _ := e.selectCandidates(context.Background(), cands)
	if len(chosen) != 1 || !chosen[0].isCurrent {
		t.Fatalf("should stay put: %+v", chosen)
	}
}

func TestSelectExcludesOverlappingTargets(t *testing.T) {
	e := selFixture(t)
	// Two cells want the same free slot; only one may take it.
	slot := findFreeSlotFor(t, e, 0)
	// Ensure the slot also fits cell 1 (same macro widths may differ —
	// use cell 0's macro width for both footprint checks by picking cells
	// with the same macro).
	var other int32 = -1
	for _, c := range e.D.Cells[1:] {
		if c.Macro == e.D.Cells[0].Macro {
			other = c.ID
			break
		}
	}
	if other < 0 {
		t.Skip("no second cell with matching macro")
	}
	mk := func(cell int32, cost float64) []candidate {
		return []candidate{
			{cell: cell, pos: e.D.Cells[cell].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
			{cell: cell, pos: slot, conflicts: map[int32]geom.Point{}, cost: cost},
		}
	}
	cands := [][]candidate{mk(0, 1), mk(other, 2)}
	chosen, sol, _ := e.selectCandidates(context.Background(), cands)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	movedToSlot := 0
	for _, c := range chosen {
		if !c.isCurrent && c.pos == slot {
			movedToSlot++
		}
	}
	if movedToSlot != 1 {
		t.Fatalf("%d candidates took the same slot", movedToSlot)
	}
}

func TestSelectExcludesSharedConflictCell(t *testing.T) {
	e := selFixture(t)
	slotA := findFreeSlotFor(t, e, 0)
	// Candidate of cell 0 relocates cell 2; candidate of cell 1 also
	// relocates cell 2 (to a different spot). They must not both win.
	slotB := geom.Pt(slotA.X, slotA.Y) // same spot is fine for the footprint of c2
	cands := [][]candidate{
		{
			{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 100},
			{cell: 0, pos: e.D.Cells[0].Pos.Add(geom.Pt(0, 0)), conflicts: map[int32]geom.Point{2: slotA}, cost: 1},
		},
		{
			{cell: 1, pos: e.D.Cells[1].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 100},
			{cell: 1, pos: e.D.Cells[1].Pos.Add(geom.Pt(0, 0)), conflicts: map[int32]geom.Point{2: slotB}, cost: 1},
		},
	}
	chosen, sol, _ := e.selectCandidates(context.Background(), cands)
	if sol.Status != ilp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	movers := 0
	for _, c := range chosen {
		if !c.isCurrent {
			movers++
		}
	}
	if movers > 1 {
		t.Fatalf("both candidates moving cell 2 were selected")
	}
}

func TestSelectPrunesDominatedCandidates(t *testing.T) {
	e := selFixture(t)
	alt := findFreeSlotFor(t, e, 0)
	// All moves cost >= current: model should be empty (0 solver nodes).
	cands := [][]candidate{{
		{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 1},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 1}, // tie: dominated
	}}
	chosen, sol, _ := e.selectCandidates(context.Background(), cands)
	if len(chosen) != 1 || !chosen[0].isCurrent {
		t.Fatalf("dominated candidate selected: %+v", chosen)
	}
	if sol.Nodes != 0 {
		t.Errorf("pruning should avoid the solver entirely, spent %d nodes", sol.Nodes)
	}
}

// TestSelectFallbackLadder is the degradation-ladder table test: every
// non-Optimal solver outcome — LimitReached with populated or nil Values,
// and Infeasible — must drive selection onto the greedy fallback without
// panicking, and the greedy path must still take the improving move.
func TestSelectFallbackLadder(t *testing.T) {
	cases := []struct {
		name string
		sol  func(m *ilp.Model) ilp.Solution
	}{
		{"limit-with-incumbent", func(m *ilp.Model) ilp.Solution {
			// The search hit its budget with Values populated (all zero);
			// they must NOT be trusted for selection.
			return ilp.Solution{
				Status: ilp.LimitReached,
				Values: make([]int8, m.NumVars()),
			}
		}},
		{"limit-no-incumbent", func(m *ilp.Model) ilp.Solution {
			// Budget hit before any feasible point: Values is nil, which is
			// exactly the shape that used to crash unguarded indexing.
			return ilp.Solution{Status: ilp.LimitReached}
		}},
		{"infeasible", func(m *ilp.Model) ilp.Solution {
			return ilp.Solution{Status: ilp.Infeasible}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := selFixture(t)
			e.Cfg.Hooks.SolveSelection = func(m *ilp.Model, opt ilp.Options) ilp.Solution {
				return tc.sol(m)
			}
			alt := findFreeSlotFor(t, e, 0)
			cands := [][]candidate{{
				{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
				{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 4},
			}}
			chosen, sol, usedGreedy := e.selectCandidates(context.Background(), cands)
			if !usedGreedy {
				t.Fatalf("status %v did not fall back to greedy", sol.Status)
			}
			if len(chosen) != 1 || chosen[0].isCurrent || chosen[0].pos != alt {
				t.Fatalf("greedy fallback missed the improving move: %+v", chosen)
			}
		})
	}
}

// TestSelectFallbackRespectsExclusions: the greedy fallback must honour the
// same exclusion semantics as the ILP — two improving candidates targeting
// the same slot cannot both win.
func TestSelectFallbackRespectsExclusions(t *testing.T) {
	e := selFixture(t)
	e.Cfg.Hooks.SolveSelection = func(m *ilp.Model, opt ilp.Options) ilp.Solution {
		return ilp.Solution{Status: ilp.LimitReached}
	}
	slot := findFreeSlotFor(t, e, 0)
	var other int32 = -1
	for _, c := range e.D.Cells[1:] {
		if c.Macro == e.D.Cells[0].Macro {
			other = c.ID
			break
		}
	}
	if other < 0 {
		t.Skip("no second cell with matching macro")
	}
	mk := func(cell int32, cost float64) []candidate {
		return []candidate{
			{cell: cell, pos: e.D.Cells[cell].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
			{cell: cell, pos: slot, conflicts: map[int32]geom.Point{}, cost: cost},
		}
	}
	chosen, _, usedGreedy := e.selectCandidates(context.Background(), [][]candidate{mk(0, 1), mk(other, 2)})
	if !usedGreedy {
		t.Fatal("forced LimitReached did not reach the greedy path")
	}
	movedToSlot := 0
	var winner *candidate
	for _, c := range chosen {
		if !c.isCurrent && c.pos == slot {
			movedToSlot++
			winner = c
		}
	}
	if movedToSlot != 1 {
		t.Fatalf("%d greedy picks took the same slot", movedToSlot)
	}
	if winner.cell != 0 {
		t.Errorf("greedy picked cell %d (gain 8) over cell 0 (gain 9)", winner.cell)
	}
}

// TestSelectExpiredDeadlineSkipsSolve: a context already past its deadline
// must not start an ILP solve at all — selection drops straight to greedy.
func TestSelectExpiredDeadlineSkipsSolve(t *testing.T) {
	e := selFixture(t)
	solved := false
	e.Cfg.Hooks.SolveSelection = func(m *ilp.Model, opt ilp.Options) ilp.Solution {
		solved = true
		return m.Solve(opt)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	alt := findFreeSlotFor(t, e, 0)
	cands := [][]candidate{{
		{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 4},
	}}
	chosen, sol, usedGreedy := e.selectCandidates(ctx, cands)
	if solved {
		t.Error("solver ran despite an expired deadline")
	}
	if !usedGreedy || sol.Status != ilp.LimitReached {
		t.Fatalf("expired deadline: usedGreedy=%v status=%v", usedGreedy, sol.Status)
	}
	if len(chosen) != 1 || chosen[0].pos != alt {
		t.Fatalf("greedy under expired deadline missed the move: %+v", chosen)
	}
}

// findFreeSlotFor locates a free legal slot for the cell somewhere on the
// die (for building synthetic candidates).
func findFreeSlotFor(t *testing.T, e *Engine, id int32) geom.Point {
	t.Helper()
	c := e.D.Cells[id]
	for ri := range e.D.Rows {
		for _, x := range e.D.FreeSitesIn(int32(ri), e.D.Die.Lo.X, e.D.Die.Hi.X, c.Macro.Width, map[int32]bool{id: true}) {
			p := geom.Pt(x, e.D.Rows[ri].Y)
			if p != c.Pos && e.D.CheckLegal(c, p) == nil {
				return p
			}
		}
	}
	t.Fatal("no free slot found")
	return geom.Point{}
}
