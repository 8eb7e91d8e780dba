package crp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/view"
)

// Iterate runs one CR&P iteration (the five phases of Fig. 1's middle box)
// and returns its statistics.
//
// The iteration is transactional: the update-database phase runs inside a
// view transaction (view.Txn), and the transaction's invariant check — an
// O(Δ) diff of the demand journal against the route swaps, plus placement
// legality — gates the commit. On violation the whole iteration is
// discarded — moved cells restored, rerouted nets re-committed to their
// old routes — so a bad iteration can degrade quality but never corrupt the
// design. Cfg.IterTimeout (and any deadline already on ctx) bounds the
// iteration; expiry stops it before the next uncommitted phase.
func (e *Engine) Iterate(ctx context.Context) IterStats {
	e.iter++
	// The demand version at iteration entry: the read phases (label, GCP,
	// ECC, selection) must not mutate demand, which the transaction's epoch
	// accounting verifies against this value.
	epoch0 := e.V.Version()
	var st IterStats
	deg := func(kind, detail string) {
		st.Degradations = append(st.Degradations, Degradation{Iter: e.iter, Kind: kind, Detail: detail})
	}
	if e.Cfg.IterTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Cfg.IterTimeout)
		defer cancel()
	}

	t0 := time.Now()
	critical := e.labelCriticalCells()
	st.Times.Label = time.Since(t0)
	st.Criticals = len(critical)
	for _, id := range critical {
		e.D.MarkCritical(id)
	}
	if len(critical) == 0 {
		return st
	}

	t0 = time.Now()
	ls0 := e.L.Stats()
	run0 := e.L.Timing()
	// The placement is frozen until the UD phase applies the selection, so
	// the whole fan-out is one legalizer pass: medians memoised by one Run
	// stay valid for every later Run this iteration.
	e.L.BeginPass()
	cands, quarGCP := e.generateCandidates(ctx, critical)
	st.Times.GCP = time.Since(t0)
	st.Times.GCPGen = e.L.Timing() - run0
	for _, q := range quarGCP {
		deg("worker-panic", fmt.Sprintf("GCP cell #%d quarantined: %s", q.index, q.msg))
	}
	st.Quarantined += len(quarGCP)
	ls1 := e.L.Stats()
	// A slot the stay-put bound proved counts as a candidate and as a
	// pricing, as it did when it was relocated and priced.
	bounded := ls1.Bounded - ls0.Bounded
	e.estimates.Add(bounded)
	st.Candidates = int(bounded)
	for _, cs := range cands {
		st.Candidates += len(cs)
	}

	t0 = time.Now()
	quarECC := e.estimateCosts(ctx, cands)
	st.Times.ECC = time.Since(t0)
	for _, q := range quarECC {
		deg("worker-panic", fmt.Sprintf("ECC group #%d quarantined: %s", q.index, q.msg))
	}
	st.Quarantined += len(quarECC)

	// Deadline gate: selection + UD start only with time on the clock. An
	// iteration abandoned here has changed nothing — GCP/ECC only read the
	// design — so stopping is free.
	if err := ctx.Err(); err != nil {
		st.DeadlineHit = true
		deg("iteration-deadline", "stopped before selection: "+err.Error())
		return st
	}

	t0 = time.Now()
	chosen, nodes, stop := e.selectCandidates(ctx, cands)
	st.Times.ILP = time.Since(t0)
	st.SolverNodes = nodes
	if stop != "" {
		deg("selection-fallback", fmt.Sprintf("Eq. 12 search stopped by its %s after %d nodes; the rest stays put", stop, nodes))
	}

	// EstBefore/EstAfter compare the selected moves against staying put,
	// on the same Algorithm 3 cost scale.
	curCost := make(map[int32]float64, len(cands))
	for i := range cands {
		for j := range cands[i] {
			if cands[i][j].isCurrent {
				curCost[cands[i][j].cell] = cands[i][j].cost
			}
		}
	}

	t0 = time.Now()
	txn := e.V.Begin(epoch0)
	moved := e.applyMoves(txn, chosen, curCost, &st)
	if h := e.Cfg.Hooks.PostUD; h != nil {
		h(e.iter)
	}
	if err := txn.Check(); err != nil {
		txn.Discard()
		st.RolledBack = true
		st.MovedCells, st.ReroutedNets, st.SkippedMoves = 0, 0, 0
		st.EstBefore, st.EstAfter = 0, 0
		deg("iteration-rollback", err.Error())
		// The discard restored the transaction's own writes; the full-scan
		// check verifies nothing outside the transaction is still broken.
		if err2 := e.checkInvariants(); err2 != nil {
			// Discard failed to restore consistency: latch the engine so
			// the run stops instead of compounding the corruption.
			e.broken = true
			deg("invariant-unrecoverable", err2.Error())
		}
	} else {
		txn.Commit()
		// History marking happens only on a kept iteration so a discarded
		// move does not dampen the cell's future re-selection.
		for _, id := range moved {
			e.D.MarkMoved(id)
		}
	}
	st.Times.UD = time.Since(t0)
	if ctx.Err() != nil {
		st.DeadlineHit = true
		deg("iteration-deadline", "deadline expired during update-database (completed transactionally)")
	}
	return st
}

// checkInvariants is the full-scan variant of the invariant check: the
// grid's demand totals are exactly the committed routes plus the
// construction-time residual (no leaked or double-counted rip-ups), and
// every cell sits at a legal position. The per-iteration gate runs the O(Δ)
// transactional check instead (view.Txn.Check); this scan remains for the
// places with no transaction diff to check against — validating a restored
// checkpoint, and verifying consistency after a discard.
func (e *Engine) checkInvariants() error {
	sumW, sumV := e.routeDemand()
	if drift := e.G.TotalWireUsage() - sumW - e.resWire; math.Abs(drift) > 1e-6 {
		return fmt.Errorf("grid wire demand drift %+g (total %g, routes %g, residual %g)",
			drift, e.G.TotalWireUsage(), sumW, e.resWire)
	}
	if drift := e.G.TotalViaCount() - sumV - e.resVia; math.Abs(drift) > 1e-6 {
		return fmt.Errorf("grid via demand drift %+g (total %g, routes %g, residual %g)",
			drift, e.G.TotalViaCount(), sumV, e.resVia)
	}
	if err := e.D.Validate(); err != nil {
		return fmt.Errorf("placement illegal: %w", err)
	}
	return nil
}

// cellCands is one critical cell still in play after pruning: its index
// into the candidate table and the candidate indices worth searching.
type cellCands struct {
	ci   int
	list []int // candidate indices within cands[ci], current first
}

// dominanceLimit is the cost a move must stay below to improve on a
// stay-put cost of cur: pruneDominated keeps exactly the moves that do, and
// the stay-put bound and ECC's early exit test against the same value.
func dominanceLimit(cur float64) float64 { return cur - 1e-9 }

// pruneDominated is the exact pruning pass of the Eq. 12 selection: a move
// candidate whose estimated cost is not below its cell's stay-put cost is
// dominated and dropped; cells left with no improving candidate are fixed
// to their current position (returned in ascending cell-index order, the
// prefix of the serial chosen order). The remaining cells come back as the
// active set, also ascending.
func pruneDominated(cands [][]candidate) (fixed []*candidate, active []cellCands) {
	for i, cs := range cands {
		curIdx := -1
		for j := range cs {
			if cs[j].isCurrent {
				curIdx = j
				break
			}
		}
		if curIdx < 0 {
			curIdx = 0 // defensive: treat the first as current
		}
		limit := dominanceLimit(cs[curIdx].cost)
		keep := []int{curIdx}
		for j := range cs {
			if j != curIdx && cs[j].cost < limit {
				keep = append(keep, j)
			}
		}
		if len(keep) == 1 {
			fixed = append(fixed, &cands[i][curIdx])
			continue
		}
		active = append(active, cellCands{i, keep})
	}
	return fixed, active
}

// selectMaxNodes caps the Eq. 12 search's nodes, summed over one
// selection's components.
const selectMaxNodes = 200_000

// selectCandidates solves Eq. 12 by exact search: one candidate per critical
// cell, at the least summed estimated cost, where candidates of different
// cells exclude each other when they move the same cell or when their moved
// footprints share a site.
//
// Exact pruning shrinks the problem first: a move candidate whose estimated
// cost is not below its cell's stay-put cost is dominated — replacing it
// with "stay" in any feasible selection stays feasible (staying occupies
// nothing new) and does not increase the cost — so it is dropped, and cells
// left with no improving candidate are fixed to their current position.
//
// The active cells split into components, the connected groups of the
// collision relation, and each component is searched depth first: its cells
// in ascending order, each cell's candidates in rank order (rank 0 stays
// put, then the legalizer's ascending-displacement order). A node is bounded
// by its partial sum plus the remaining cells' cheapest costs, added in the
// leaf's order; float addition of non-negative terms is monotone, so the
// bound never exceeds a leaf's sum (the stay-put bound rests on the same
// argument). The incumbent starts as "every cell stays", and only a strictly
// lower sum replaces it. The tie rule follows: a component's pick has the
// least cost summed in ascending cell order, and among equal sums the
// lexicographically smallest rank vector wins, so an equal-cost tie goes to
// the smaller move.
//
// Truncation: the node cap selectMaxNodes, Cfg.ILPTimeLimit (counted from
// the call) and ctx's deadline stop the search. The component being searched
// keeps its best assignment so far, later components stay put, and stop
// names the limit (empty when the search completed). chosen lists the fixed
// cells, then the active cells in ascending order.
func (e *Engine) selectCandidates(ctx context.Context, cands [][]candidate) (chosen []*candidate, nodes int, stop string) {
	start := time.Now()
	chosen, active := pruneDominated(cands)
	if len(active) == 0 {
		return chosen, 0, ""
	}
	dl, timed := ctx.Deadline()
	if l := e.Cfg.ILPTimeLimit; l > 0 && (!timed || start.Add(l).Before(dl)) {
		dl, timed = start.Add(l), true
	}
	s := eq12{expired: func() bool { return ctx.Err() != nil || timed && !time.Now().Before(dl) }}

	// Collision keys, one dense ID each: (-1, cell) for a moved cell and
	// (row, x) for a site of a moved footprint. A union-find over the
	// active cells joins every two that claim one key.
	sw := e.D.Tech.Site.Width
	keyIDs := map[[2]int]int32{}
	var owner []int // the first active cell to claim each key
	parent := make([]int, len(active))
	for a := range parent {
		parent[a] = a
	}
	find := func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	claim := func(a int, k [2]int) int32 {
		id, ok := keyIDs[k]
		if !ok {
			id = int32(len(owner))
			keyIDs[k] = id
			owner = append(owner, a)
		} else {
			parent[find(a)] = find(owner[id])
		}
		return id
	}
	s.cost = make([][]float64, len(active))
	s.keys = make([][][]int32, len(active))
	s.minCost = make([]float64, len(active))
	for a, cc := range active {
		s.cost[a] = make([]float64, len(cc.list))
		s.keys[a] = make([][]int32, len(cc.list))
		for r, j := range cc.list {
			c := &cands[cc.ci][j]
			s.cost[a][r] = c.cost
			if r == 0 {
				s.minCost[a] = c.cost
				continue // staying put claims nothing it does not own
			}
			s.minCost[a] = min(s.minCost[a], c.cost)
			for _, mc := range c.movedCells() {
				s.keys[a][r] = append(s.keys[a][r], claim(a, [2]int{-1, int(mc)}))
				p := c.pos
				if mc != c.cell {
					p = c.conflicts[mc]
				}
				row, ok := e.D.RowAt(p.Y)
				if !ok {
					continue
				}
				for x := p.X; x < p.X+e.D.Cells[mc].Macro.Width; x += sw {
					s.keys[a][r] = append(s.keys[a][r], claim(a, [2]int{int(row.Index), x}))
				}
			}
		}
	}
	s.claimed = make([]bool, len(owner))

	// Components in ascending order of their lowest cell, each ascending.
	var comps [][]int
	compOf := map[int]int{}
	for a := range active {
		r := find(a)
		ci, ok := compOf[r]
		if !ok {
			ci = len(comps)
			compOf[r] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], a)
	}

	pick := make([]int, len(active)) // rank per active cell: 0 stays
	for n, comp := range comps {
		if s.expired() {
			stop = fmt.Sprintf("deadline before component %d of %d", n+1, len(comps))
			break
		}
		if !s.search(comp, pick) {
			stop = fmt.Sprintf("%s in component %d of %d", s.cut, n+1, len(comps))
			break
		}
	}
	for a, cc := range active {
		chosen = append(chosen, &cands[cc.ci][cc.list[pick[a]]])
	}
	return chosen, s.nodes, stop
}

// eq12 is the search state of one selection, indexed by active cell, then
// by candidate rank.
type eq12 struct {
	cost    [][]float64
	keys    [][][]int32 // the collision keys each move claims
	minCost []float64   // each cell's cheapest candidate
	claimed []bool      // by key: taken by a candidate on the current path
	nodes   int
	expired func() bool
	cut     string // the limit that stopped the search

	// The component being searched: its cells, the current path's ranks,
	// and the incumbent's ranks and summed cost.
	comp       []int
	path, best []int
	bestSum    float64
}

// search runs the depth-first search over one component and writes its
// incumbent's ranks into pick; false means a limit cut it short.
func (s *eq12) search(comp []int, pick []int) bool {
	s.comp = comp
	s.path = make([]int, len(comp))
	s.best = make([]int, len(comp))
	s.bestSum = 0
	for _, a := range comp {
		s.bestSum += s.cost[a][0]
	}
	done := s.dfs(0, 0)
	for d, a := range comp {
		pick[a] = s.best[d]
	}
	return done
}

// dfs extends the current path at depth d, whose partial sum is sum.
func (s *eq12) dfs(d int, sum float64) bool {
	a := s.comp[d]
next:
	for r, c := range s.cost[a] {
		for _, k := range s.keys[a][r] {
			if s.claimed[k] {
				continue next
			}
		}
		part := sum + c
		bound := part
		for _, b := range s.comp[d+1:] {
			bound += s.minCost[b]
		}
		if bound >= s.bestSum {
			continue
		}
		if s.nodes == selectMaxNodes {
			s.cut = "node cap"
			return false
		}
		if s.nodes++; s.nodes%64 == 0 && s.expired() {
			s.cut = "deadline"
			return false
		}
		s.path[d] = r
		if d+1 == len(s.comp) {
			s.bestSum = part
			copy(s.best, s.path)
			continue
		}
		for _, k := range s.keys[a][r] {
			s.claimed[k] = true
		}
		done := s.dfs(d+1, part)
		for _, k := range s.keys[a][r] {
			s.claimed[k] = false
		}
		if !done {
			return false
		}
	}
	return true
}

// applyMoves is the Update Database phase: commit the selected moves and
// rip-up & reroute every net touching a moved cell, all through the
// iteration's view transaction (which captures what a discard needs). The
// EstBefore/EstAfter sums run in chosen order — float addition order is part
// of the bit-identity contract. It returns the moved cell IDs — history
// marking is deferred until the transaction's invariant check passes.
func (e *Engine) applyMoves(txn *view.Txn, chosen []*candidate, curCost map[int32]float64, st *IterStats) (moved []int32) {
	movedCells := map[int32]bool{}
	for _, c := range chosen {
		if c.isCurrent {
			continue
		}
		st.EstBefore += curCost[c.cell]
		st.EstAfter += c.cost
		moves := map[int32]geom.Point{c.cell: c.pos}
		for id, p := range c.conflicts {
			moves[id] = p
		}
		if err := txn.MoveCells(moves); err != nil {
			// The selection's exclusions should make this unreachable;
			// count it rather than corrupting the placement.
			st.SkippedMoves++
			continue
		}
		for id := range moves {
			movedCells[id] = true
		}
	}
	st.MovedCells = len(movedCells)

	// Reroute all nets touching moved cells, in deterministic order; the
	// transaction records each net's pre-iteration route on first touch.
	nets := e.affectedNets(movedCells)
	for _, nid := range nets {
		txn.RerouteNet(nid)
	}
	st.ReroutedNets = len(nets)
	return sortedCellIDs(movedCells)
}

// affectedNets returns every net touching a moved cell, ascending.
func (e *Engine) affectedNets(movedCells map[int32]bool) []int32 {
	netSet := map[int32]bool{}
	for id := range movedCells {
		for _, nid := range e.D.Cells[id].Nets {
			netSet[nid] = true
		}
	}
	return sortedCellIDs(netSet)
}

// sortedCellIDs flattens an ID set into an ascending slice.
func sortedCellIDs(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
