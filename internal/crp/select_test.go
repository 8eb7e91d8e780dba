package crp

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/geom"
)

// Unit tests for the Eq. 12 selection search over hand-built candidate
// sets, independent of the full pipeline.

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
	chosen, _, stop := e.selectCandidates(context.Background(), cands)
	if stop != "" {
		t.Fatalf("search stopped: %s", stop)
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
	chosen, _, stop := e.selectCandidates(context.Background(), cands)
	if stop != "" {
		t.Fatalf("search stopped: %s", stop)
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
	chosen, _, stop := e.selectCandidates(context.Background(), cands)
	if stop != "" {
		t.Fatalf("search stopped: %s", stop)
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
	// All moves cost >= current: nothing is left to search (0 nodes).
	cands := [][]candidate{{
		{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 1},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 1}, // tie: dominated
	}}
	chosen, nodes, _ := e.selectCandidates(context.Background(), cands)
	if len(chosen) != 1 || !chosen[0].isCurrent {
		t.Fatalf("dominated candidate selected: %+v", chosen)
	}
	if nodes != 0 {
		t.Errorf("pruning should avoid the search entirely, spent %d nodes", nodes)
	}
}

// starvedTable is a selection the search cannot finish within
// selectMaxNodes: cells 0..n-1 each stay at cost 1, take a move that also
// relocates cell n at cost 0, or move in place alone at cost 0.9. The
// zero-cost moves all relocate cell n, so at most one of them is chosen,
// and the per-cell minimum bound (all zeros) prunes almost nothing: at
// n = 30 the optimum, 0.9·(n−1), sits behind millions of partial paths.
func starvedTable(e *Engine, n int) [][]candidate {
	x := int32(n)
	cands := make([][]candidate, n)
	for i := range cands {
		id := int32(i)
		pos := e.D.Cells[id].Pos
		cands[i] = []candidate{
			{cell: id, pos: pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 1},
			{cell: id, pos: pos, conflicts: map[int32]geom.Point{x: e.D.Cells[x].Pos}, cost: 0},
			{cell: id, pos: pos, conflicts: map[int32]geom.Point{}, cost: 0.9},
		}
	}
	return cands
}

// TestSelectFallbackLadder is the degradation-ladder table test: the node
// cap stops the search after it found an improving assignment, which it
// keeps; Cfg.ILPTimeLimit stops it before the first component, so every
// cell stays. Both report the limit, and neither returns a collision.
func TestSelectFallbackLadder(t *testing.T) {
	cases := []struct {
		name  string
		limit time.Duration
		stop  string
		nodes int
	}{
		{"node-cap", 0, "node cap", selectMaxNodes},
		{"time-limit", time.Nanosecond, "deadline before component 1", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := selFixture(t)
			e.Cfg.ILPTimeLimit = tc.limit
			chosen, nodes, stop := e.selectCandidates(context.Background(), starvedTable(e, 30))
			if !strings.HasPrefix(stop, tc.stop) || nodes != tc.nodes {
				t.Fatalf("stop %q after %d nodes, want %q after %d", stop, nodes, tc.stop, tc.nodes)
			}
			if err := collisionFree(e, chosen); err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, c := range chosen {
				sum += c.cost
			}
			if improved := sum < 30; improved != (nodes > 0) {
				t.Fatalf("selection costs %v after %d nodes; every cell staying costs 30", sum, nodes)
			}
		})
	}
}

// TestSelectFallbackRespectsExclusions: a search the node cap cuts short
// keeps a collision-free best-so-far in the component it was searching —
// at most one chosen move relocates the shared cell — and leaves every
// later component in place, even one with an improving move.
func TestSelectFallbackRespectsExclusions(t *testing.T) {
	e := selFixture(t)
	const late int32 = 40
	cands := append(starvedTable(e, 30), []candidate{
		{cell: late, pos: e.D.Cells[late].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
		{cell: late, pos: e.D.Cells[late].Pos, conflicts: map[int32]geom.Point{}, cost: 1},
	})
	chosen, _, stop := e.selectCandidates(context.Background(), cands)
	if !strings.HasPrefix(stop, "node cap in component 1 of 2") {
		t.Fatalf("stop %q, want the node cap in the first component", stop)
	}
	if err := collisionFree(e, chosen); err != nil {
		t.Fatal(err)
	}
	if last := chosen[len(chosen)-1]; last.cell != late || !last.isCurrent {
		t.Errorf("the component after the cut chose %+v, want cell %d to stay", last, late)
	}
}

// TestSelectExpiredDeadlineSkipsSolve: a context already past its deadline
// must not start the search at all — every cell stays put.
func TestSelectExpiredDeadlineSkipsSolve(t *testing.T) {
	e := selFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	alt := findFreeSlotFor(t, e, 0)
	cands := [][]candidate{{
		{cell: 0, pos: e.D.Cells[0].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10},
		{cell: 0, pos: alt, conflicts: map[int32]geom.Point{}, cost: 4},
	}}
	chosen, nodes, stop := e.selectCandidates(ctx, cands)
	if nodes != 0 || !strings.HasPrefix(stop, "deadline before component 1") {
		t.Fatalf("expired deadline: %d nodes, stop %q", nodes, stop)
	}
	if len(chosen) != 1 || !chosen[0].isCurrent {
		t.Fatalf("expired deadline moved a cell: %+v", chosen)
	}
}

// TestSelectTieRule pins Eq. 12's tie rule: among selections of equal
// summed cost, the lexicographically smallest rank vector (cells ascending)
// wins. Within a cell an equal-cost tie goes to the earlier-ranked, smaller
// move; across two cells that want one slot at equal cost, the first cell
// stays and the second moves.
func TestSelectTieRule(t *testing.T) {
	e := selFixture(t)
	slot := findFreeSlotFor(t, e, 0)
	stay := func(id int32) candidate {
		return candidate{cell: id, pos: e.D.Cells[id].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: 10}
	}
	move := func(id int32, p geom.Point) candidate {
		return candidate{cell: id, pos: p, conflicts: map[int32]geom.Point{}, cost: 4}
	}
	one := [][]candidate{{stay(0), move(0, slot), move(0, e.D.Cells[0].Pos)}}
	if chosen, _, _ := e.selectCandidates(context.Background(), one); chosen[0] != &one[0][1] {
		t.Errorf("equal-cost moves: chose %+v, want the first-ranked %+v", chosen[0], one[0][1])
	}
	two := [][]candidate{{stay(0), move(0, slot)}, {stay(1), move(1, slot)}}
	if chosen, _, _ := e.selectCandidates(context.Background(), two); chosen[0] != &two[0][0] || chosen[1] != &two[1][1] {
		t.Errorf("two cells tied on one slot: chose %+v and %+v, want rank vector (0, 1)", chosen[0], chosen[1])
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
