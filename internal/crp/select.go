package crp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
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
	chosen, sol, usedGreedy := e.selectCandidates(ctx, cands)
	st.Times.ILP = time.Since(t0)
	st.SolverNodes = sol.Nodes
	st.SolverStatus = sol.Status
	if usedGreedy {
		st.GreedyFallback = true
		deg("selection-fallback", fmt.Sprintf("selection ILP %v; greedy improving selection took over", sol.Status))
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
// into the candidate table and the candidate indices worth modelling.
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

// selectMaxNodes caps the selection ILP's branch & bound nodes.
const selectMaxNodes = 200_000

// selectCandidates builds and solves the Eq. 12 selection ILP: one
// candidate per critical cell; candidates of different cells that move the
// same cell or whose moved footprints overlap exclude each other.
//
// Exact pruning shrinks the model first: a move candidate whose estimated
// cost is not below its cell's stay-put cost is dominated — replacing it
// with "stay" in any feasible solution stays feasible (staying occupies
// nothing new) and does not increase the objective — so it is dropped, and
// cells left with no improving candidate are fixed to their current
// position outside the model.
//
// Degradation ladder: a solve that ends LimitReached or Infeasible — or a
// ctx deadline that expires before the solve can start — drops to the
// greedy improving selection below (usedGreedy=true). The greedy path is
// always feasible and never worse than everyone staying put.
func (e *Engine) selectCandidates(ctx context.Context, cands [][]candidate) (_ []*candidate, _ ilp.Solution, usedGreedy bool) {
	chosen, active := pruneDominated(cands)
	if len(active) == 0 {
		return chosen, ilp.Solution{Status: ilp.Optimal, HasIncumbent: true}, false
	}

	m := ilp.NewModel()
	type varRef struct {
		ci, cj int // indices into cands
	}
	var refs []varRef

	// Per-cell "exactly one" constraints.
	for _, cc := range active {
		terms := make([]ilp.Term, 0, len(cc.list))
		for _, j := range cc.list {
			v := m.AddBinary("", cands[cc.ci][j].cost)
			refs = append(refs, varRef{cc.ci, j})
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
		}
		m.AddConstraint("pick-one", terms, ilp.EQ, 1)
	}

	// Exclusion constraints. A spatial hash over moved footprints (at
	// site granularity) and a moved-cell index find colliding pairs
	// without the quadratic sweep.
	sw := e.D.Tech.Site.Width
	siteOwners := map[[2]int][]int{} // (row, siteX) -> var indices
	cellMovers := map[int32][]int{}  // moved cell -> var indices
	for vi, ref := range refs {
		c := &cands[ref.ci][ref.cj]
		if c.isCurrent {
			continue // staying put occupies what it already owns
		}
		for _, mc := range c.movedCells() {
			cellMovers[mc] = append(cellMovers[mc], vi)
			var p geom.Point
			if mc == c.cell {
				p = c.pos
			} else {
				p = c.conflicts[mc]
			}
			w := e.D.Cells[mc].Macro.Width
			row, ok := e.D.RowAt(p.Y)
			if !ok {
				continue
			}
			for x := p.X; x < p.X+w; x += sw {
				key := [2]int{int(row.Index), x}
				siteOwners[key] = append(siteOwners[key], vi)
			}
		}
	}
	// Emit exclusion pairs in sorted key order so the model (and thus any
	// solver tie-breaking) is deterministic run to run.
	pairSeen := map[[2]int]bool{}
	addPair := func(a, b int) {
		if refs[a].ci == refs[b].ci {
			return // same critical cell: covered by pick-one
		}
		if a > b {
			a, b = b, a
		}
		if pairSeen[[2]int{a, b}] {
			return
		}
		pairSeen[[2]int{a, b}] = true
		m.AddConstraint("excl",
			[]ilp.Term{{Var: ilp.VarID(a), Coef: 1}, {Var: ilp.VarID(b), Coef: 1}}, ilp.LE, 1)
	}
	siteKeys := make([][2]int, 0, len(siteOwners))
	for k := range siteOwners {
		siteKeys = append(siteKeys, k)
	}
	sort.Slice(siteKeys, func(a, b int) bool {
		if siteKeys[a][0] != siteKeys[b][0] {
			return siteKeys[a][0] < siteKeys[b][0]
		}
		return siteKeys[a][1] < siteKeys[b][1]
	})
	for _, k := range siteKeys {
		vs := siteOwners[k]
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				addPair(vs[i], vs[j])
			}
		}
	}
	moverKeys := make([]int32, 0, len(cellMovers))
	for k := range cellMovers {
		moverKeys = append(moverKeys, k)
	}
	sort.Slice(moverKeys, func(a, b int) bool { return moverKeys[a] < moverKeys[b] })
	for _, k := range moverKeys {
		vs := cellMovers[k]
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				addPair(vs[i], vs[j])
			}
		}
	}

	// Solve budget: the node cap, the configured per-solve time
	// limit, and whatever remains of the iteration deadline — whichever is
	// tightest. A deadline already in the past skips the solve entirely.
	opt := ilp.Options{
		MaxNodes:  selectMaxNodes,
		TimeLimit: e.Cfg.ILPTimeLimit,
	}
	skipSolve := false
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			skipSolve = true
		} else if opt.TimeLimit == 0 || rem < opt.TimeLimit {
			opt.TimeLimit = rem
		}
	}
	if h := e.Cfg.Hooks.ILPOptions; h != nil {
		opt = h(opt)
	}
	var sol ilp.Solution
	if skipSolve {
		sol = ilp.Solution{Status: ilp.LimitReached}
	} else if h := e.Cfg.Hooks.SolveSelection; h != nil {
		sol = h(m, opt)
	} else {
		sol = m.Solve(opt)
	}
	if sol.Status == ilp.Optimal {
		for vi, ref := range refs {
			if sol.Value(ilp.VarID(vi)) {
				chosen = append(chosen, &cands[ref.ci][ref.cj])
			}
		}
		return chosen, sol, false
	}

	// Budget exhausted (or infeasible under an injected fault): fall back
	// to a greedy improving selection — best gain first, skipping any move
	// that collides with an already-accepted one. A LimitReached incumbent
	// is deliberately not used here: unlike the legalizer's window models,
	// Eq. 12 incumbents from a truncated search have shown no quality edge
	// over the greedy order, and one fallback path is easier to reason
	// about than two.
	type pick struct {
		cc   cellCands
		best int // candidate index, -1 = stay
		gain float64
	}
	picks := make([]pick, 0, len(active))
	for _, cc := range active {
		cur := cands[cc.ci][cc.list[0]].cost
		best, bestCost := -1, cur
		for _, j := range cc.list[1:] {
			if c := cands[cc.ci][j].cost; c < bestCost {
				best, bestCost = j, c
			}
		}
		picks = append(picks, pick{cc, best, cur - bestCost})
	}
	sort.Slice(picks, func(a, b int) bool {
		if picks[a].gain != picks[b].gain {
			return picks[a].gain > picks[b].gain
		}
		return picks[a].cc.ci < picks[b].cc.ci
	})
	claimedSites := map[[2]int]bool{}
	claimedCells := map[int32]bool{}

	for _, p := range picks {
		cur := &cands[p.cc.ci][p.cc.list[0]]
		if p.best < 0 {
			chosen = append(chosen, cur)
			continue
		}
		cand := &cands[p.cc.ci][p.best]
		ok := true
		var sites [][2]int
		var movers []int32
		for _, mc := range cand.movedCells() {
			if claimedCells[mc] {
				ok = false
				break
			}
			movers = append(movers, mc)
			pos := cand.pos
			if mc != cand.cell {
				pos = cand.conflicts[mc]
			}
			row, okr := e.D.RowAt(pos.Y)
			if !okr {
				ok = false
				break
			}
			w := e.D.Cells[mc].Macro.Width
			for x := pos.X; x < pos.X+w; x += sw {
				key := [2]int{int(row.Index), x}
				if claimedSites[key] {
					ok = false
					break
				}
				sites = append(sites, key)
			}
			if !ok {
				break
			}
		}
		if !ok {
			chosen = append(chosen, cur)
			continue
		}
		for _, s := range sites {
			claimedSites[s] = true
		}
		for _, mc := range movers {
			claimedCells[mc] = true
		}
		chosen = append(chosen, cand)
	}
	return chosen, sol, true
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
			// The exclusion constraints should make this unreachable;
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
