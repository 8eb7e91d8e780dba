package crp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// The referees of the Eq. 12 search: the selection ILP it replaced, kept
// here as the oracle and solved by ilp.Model.Solve, and an independent
// footprint check of the exclusions.

// eq12Model builds Eq. 12 over the cells pruneDominated leaves active as a
// 0/1 program: a binary per kept candidate at its cost, a pick-one row per
// cell, and an exclusion row per pair of candidates of different cells that
// move one cell or cover one site with a moved footprint.
func eq12Model(e *Engine, cands [][]candidate) *ilp.Model {
	_, active := pruneDominated(cands)
	m := ilp.NewModel()
	var refs []*candidate
	var cellOf []int
	for _, cc := range active {
		terms := make([]ilp.Term, 0, len(cc.list))
		for _, j := range cc.list {
			c := &cands[cc.ci][j]
			terms = append(terms, ilp.Term{Var: m.AddBinary("", c.cost), Coef: 1})
			refs, cellOf = append(refs, c), append(cellOf, cc.ci)
		}
		m.AddConstraint("pick-one", terms, ilp.EQ, 1)
	}
	sw := e.D.Tech.Site.Width
	owners := map[[2]int][]int{} // (-1, cell) or (row, x) -> variables
	for v, c := range refs {
		if c.isCurrent {
			continue // staying put occupies what it already owns
		}
		for _, mc := range c.movedCells() {
			owners[[2]int{-1, int(mc)}] = append(owners[[2]int{-1, int(mc)}], v)
			p := c.pos
			if mc != c.cell {
				p = c.conflicts[mc]
			}
			row, ok := e.D.RowAt(p.Y)
			if !ok {
				continue
			}
			for x := p.X; x < p.X+e.D.Cells[mc].Macro.Width; x += sw {
				owners[[2]int{int(row.Index), x}] = append(owners[[2]int{int(row.Index), x}], v)
			}
		}
	}
	pairs := map[[2]int]bool{}
	for _, vs := range owners {
		for i := range vs {
			for _, w := range vs[i+1:] {
				if cellOf[vs[i]] != cellOf[w] {
					pairs[[2]int{min(vs[i], w), max(vs[i], w)}] = true
				}
			}
		}
	}
	sorted := make([][2]int, 0, len(pairs))
	for p := range pairs {
		sorted = append(sorted, p)
	}
	slices.SortFunc(sorted, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for _, p := range sorted {
		m.AddConstraint("excl", []ilp.Term{{Var: ilp.VarID(p[0]), Coef: 1}, {Var: ilp.VarID(p[1]), Coef: 1}}, ilp.LE, 1)
	}
	return m
}

// collisionFree checks a selection by footprint intersection, apart from
// the search's collision keys: no two chosen moves of different cells may
// move one cell, or place moved cells that overlap on one row.
func collisionFree(e *Engine, chosen []*candidate) error {
	type footprint struct {
		owner, cell int32
		y, lo, hi   int
	}
	var fps []footprint
	for _, c := range chosen {
		if c.isCurrent {
			continue
		}
		for _, mc := range c.movedCells() {
			p := c.pos
			if mc != c.cell {
				p = c.conflicts[mc]
			}
			fps = append(fps, footprint{c.cell, mc, p.Y, p.X, p.X + e.D.Cells[mc].Macro.Width})
		}
	}
	for i, a := range fps {
		for _, b := range fps[i+1:] {
			if a.owner != b.owner && (a.cell == b.cell || a.y == b.y && a.lo < b.hi && b.lo < a.hi) {
				return fmt.Errorf("the moves of cells %d and %d collide on cell %d/%d", a.owner, b.owner, a.cell, b.cell)
			}
		}
	}
	return nil
}

// checkAgainstILP referees one selection: the search completed, its
// choice is collision-free, and its cost over the active cells agrees with
// the Eq. 12 ILP's optimum within 1e-9 relative. It returns the active
// picks, in ascending cell order.
func checkAgainstILP(t *testing.T, e *Engine, cands [][]candidate, chosen []*candidate, stop string) []*candidate {
	t.Helper()
	if stop != "" {
		t.Fatalf("search stopped: %s", stop)
	}
	if err := collisionFree(e, chosen); err != nil {
		t.Fatal(err)
	}
	_, active := pruneDominated(cands)
	picks := chosen[len(chosen)-len(active):]
	got := 0.0
	for _, c := range picks {
		got += c.cost
	}
	sol := eq12Model(e, cands).Solve(context.Background(), ilp.Options{})
	if sol.Status != ilp.Optimal {
		t.Fatalf("ILP %v, but every cell staying put is feasible", sol.Status)
	}
	if math.Abs(got-sol.Objective) > 1e-9*math.Max(1, math.Abs(sol.Objective)) {
		t.Fatalf("search cost %v, ILP optimum %v", got, sol.Objective)
	}
	return picks
}

// fuzzTable decodes a candidate table over e's design from data: 1–6
// critical cells (cells 0, 5, …, 25), each with its stay-put candidate and
// up to 4 moves. A move puts its cell at one of 16 sites on one of rows
// 0–2, and three in four moves also relocate one of cells 100–102 to such a
// slot. Every cost is a multiple of 1/4 below 8: ties are common, and every
// sum is exact in any order.
func fuzzTable(e *Engine, data []byte) [][]candidate {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	slot := func(b int) geom.Point {
		row := e.D.Rows[b/16%3]
		return geom.Pt(row.X+b%16*e.D.Tech.Site.Width, row.Y)
	}
	cost := func() float64 { return float64(next()%32) / 4 }
	cands := make([][]candidate, 1+next()%6)
	for i := range cands {
		id := int32(5 * i)
		cands[i] = []candidate{{cell: id, pos: e.D.Cells[id].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true, cost: cost()}}
		for n := next() % 5; n > 0; n-- {
			c := candidate{cell: id, pos: slot(next()), conflicts: map[int32]geom.Point{}, cost: cost()}
			if b := next(); b%4 != 3 {
				c.conflicts[int32(100+b%4)] = slot(b / 4)
			}
			cands[i] = append(cands[i], c)
		}
	}
	return cands
}

// bruteForce enumerates every collision-free choice over the active cells
// in lexicographic rank order and returns the first of least cost summed in
// ascending cell order: Eq. 12's tie rule, where sums are exact.
func bruteForce(e *Engine, cands [][]candidate) []*candidate {
	_, active := pruneDominated(cands)
	ranks := make([]int, len(active))
	var best []*candidate
	bestSum := math.Inf(1)
	for {
		pick := make([]*candidate, len(active))
		sum := 0.0
		for a, cc := range active {
			pick[a] = &cands[cc.ci][cc.list[ranks[a]]]
			sum += pick[a].cost
		}
		if sum < bestSum && collisionFree(e, pick) == nil {
			best, bestSum = pick, sum
		}
		a := len(ranks) - 1
		for ; a >= 0; a-- {
			if ranks[a]++; ranks[a] < len(active[a].list) {
				break
			}
			ranks[a] = 0
		}
		if a < 0 {
			return best
		}
	}
}

// FuzzSelect referees the Eq. 12 search against the selection ILP
// (eq12Model, solved by ilp.Model.Solve) on decoded tables (fuzzTable):
// both find a selection, their costs agree within 1e-9 relative, the
// search's choice is collision-free, and on tables of at most 4 active
// cells brute force confirms the tie rule — the lexicographically smallest
// rank vector among the least-cost choices.
func FuzzSelect(f *testing.F) {
	d, g, r := fixture(f, 120, 80, 55)
	e := New(d, g, r, smallConfig(1))
	// Bytes: the cell count−1; per cell its stay-put cost, its move count,
	// then per move its slot, its cost and its conflict byte (see fuzzTable).
	// One cell, two equal-cost moves: the first-ranked one wins.
	f.Add([]byte{0, 24, 2, 5, 8, 3, 9, 8, 3})
	// Two cells whose free moves both relocate cell 100, each with a second
	// move at cost 2: the tie goes to rank vector (1, 2).
	f.Add([]byte{1, 28, 2, 17, 0, 0, 20, 8, 3, 28, 2, 40, 0, 0, 44, 8, 3})
	// Three cells whose moves overlap in a chain on row 1: the outer two
	// move.
	f.Add([]byte{2, 28, 1, 16, 4, 3, 28, 1, 17, 4, 3, 28, 1, 18, 4, 3})
	// Six active cells: too many for brute force, still refereed by the ILP.
	f.Add([]byte{5, 28, 2, 16, 4, 3, 32, 8, 0, 28, 2, 17, 5, 3, 34, 8, 1, 28, 2, 18, 6, 3, 36, 8, 2,
		28, 2, 19, 7, 3, 38, 8, 0, 28, 2, 20, 8, 3, 40, 8, 1, 28, 2, 21, 9, 3, 42, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		cands := fuzzTable(e, data)
		chosen, _, stop := e.selectCandidates(context.Background(), cands)
		picks := checkAgainstILP(t, e, cands, chosen, stop)
		if len(picks) > 4 {
			return
		}
		for a, want := range bruteForce(e, cands) {
			if picks[a] != want {
				t.Fatalf("active cell %d: search chose %+v, brute force %+v", a, *picks[a], *want)
			}
		}
	})
}

// eachSelection drives e through Cfg.Iterations iterations phase by phase,
// as Iterate runs a fault-free iteration — label, generate, estimate,
// select, then the update-database transaction — and hands each selection,
// with its candidate table, to fn.
func eachSelection(tb testing.TB, e *Engine, fn func(cands [][]candidate, chosen []*candidate, stop string)) {
	tb.Helper()
	ctx := context.Background()
	for k := 0; k < e.Cfg.Iterations; k++ {
		e.iter++
		epoch := e.V.Version()
		critical := e.labelCriticalCells()
		for _, id := range critical {
			e.D.MarkCritical(id)
		}
		if len(critical) == 0 {
			continue
		}
		e.L.BeginPass()
		cands, _ := e.generateCandidates(ctx, critical)
		e.estimateCosts(ctx, cands)
		chosen, _, stop := e.selectCandidates(ctx, cands)
		fn(cands, chosen, stop)
		txn := e.V.Begin(epoch)
		moved := e.applyMoves(txn, chosen, nil, &IterStats{})
		if err := txn.Check(); err != nil {
			tb.Fatalf("iteration %d: %v", k+1, err)
		}
		txn.Commit()
		for _, id := range moved {
			e.D.MarkMoved(id)
		}
	}
}

// TestSelectMatchesILPOnSuite is the suite half of the Eq. 12 referee: on
// crp_test1–10 at scale 0.004, k = 10, every selection the search makes is
// checked against the selection ILP (checkAgainstILP). The candidate tables
// come from running the phases directly (eachSelection); that the run they
// follow is the real one is checked too: its final placement and routing
// cost equal an Iterate-driven run's.
func TestSelectMatchesILPOnSuite(t *testing.T) {
	searched := 0
	for _, spec := range ispd.Suite(0.004) {
		t.Run(spec.Name, func(t *testing.T) {
			run := func(direct bool) ([]geom.Point, float64) {
				d, err := ispd.Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				g := grid.New(d, grid.DefaultParams())
				r := global.New(d, g, global.DefaultConfig())
				r.RouteAll()
				cfg := DefaultConfig()
				cfg.Workers = 2
				e := New(d, g, r, cfg)
				if direct {
					eachSelection(t, e, func(cands [][]candidate, chosen []*candidate, stop string) {
						searched += len(checkAgainstILP(t, e, cands, chosen, stop))
					})
				} else {
					iterate(e)
				}
				var pos []geom.Point
				for _, c := range d.Cells {
					pos = append(pos, c.Pos)
				}
				return pos, r.TotalCost()
			}
			pos, cost := run(true)
			refPos, refCost := run(false)
			if !slices.Equal(pos, refPos) || cost != refCost {
				t.Fatalf("the phase-by-phase run diverged from Iterate's (cost %v, want %v)", cost, refCost)
			}
		})
	}
	t.Logf("%d active cells searched", searched)
	if searched == 0 {
		t.Fatal("vacuous: no selection had a cell to search")
	}
}
