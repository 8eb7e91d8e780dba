package crp

// Region-sharded speculative iterations (DESIGN.md, "Sharding architecture").
//
// iterateSharded is Iterate with the label phase kept serial (the counted
// RNG stream is part of the checkpoint bit-identity contract) and the
// GCP→ECC→selection pipeline run per region: the critical set is
// partitioned by internal/shard so that no two regions' candidates can
// interact through the selection ILP, each region runs the three phases on
// its own worker with its own overlay and legalizer scratch, and one view
// transaction merges the results with optimistic conflict detection over
// the demand journal. Every divergence hazard has a serial escape hatch, so
// the committed state is bit-identical to the serial Iterate at any worker
// count:
//
//   - a region that panics or overruns its budget is redone serially with
//     the serial mode's exact per-cell quarantine semantics;
//   - per-region ILP solutions are recombined only when the recombination
//     provably equals the global solve (all regions optimal, no greedy
//     fallback, no selection hooks, no time limits, and the summed node
//     count under the shared MaxNodes budget — node counts are pure
//     functions of the component models, so the guard is exact); otherwise
//     the global serial selection runs as-is;
//   - the merge reroutes region-major and verifies, on the O(Δ) journal,
//     that every demand write stayed inside its region's declared GCell
//     footprint; any maze fallback or footprint escape discards the
//     transaction and replays the whole update serially.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/ilp"
	"github.com/crp-eda/crp/internal/shard"
	"github.com/crp-eda/crp/internal/view"
)

// regionRun is one region's speculative pipeline result.
type regionRun struct {
	sub        [][]candidate // rows alias the global candidate table
	chosen     []*candidate
	sol        ilp.Solution
	usedGreedy bool

	gcp, ecc, ilpT time.Duration
	timedOut       bool
	done           bool
}

// iterateSharded is the sharded twin of Iterate; see the file comment.
func (e *Engine) iterateSharded(ctx context.Context) IterStats {
	e.iter++
	epoch0 := e.V.Version()
	var st IterStats
	ss := &ShardIterStats{}
	st.Shard = ss
	deg := func(kind, detail string) {
		st.Degradations = append(st.Degradations, Degradation{Iter: e.iter, Kind: kind, Detail: detail})
	}
	if e.Cfg.IterTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Cfg.IterTimeout)
		defer cancel()
	}

	// Labeling: serial and global, exactly the serial path — it consumes the
	// engine RNG, whose counted stream checkpoints depend on.
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

	ls0 := e.L.Stats()
	run0, solve0 := e.L.Timing()
	e.L.BeginPass()

	// Partition over the legalizer windows: every candidate slot and every
	// conflict relocation of cell i lies inside rects[i], so disjoint
	// (halo-inflated) rects imply disjoint selection sub-problems.
	regions := e.partitionCritical(critical)
	ss.Regions = len(regions)

	// Speculative region pipelines: each region is one work item of the
	// worker pool, running GCP, ECC and its selection solve back to back on
	// its worker's scratch and overlay.
	cands := make([][]candidate, len(critical))
	runs := make([]regionRun, len(regions))
	var inflight, peak int32
	quar := e.parallelFor(ctx, len(regions), func(w, ri int) {
		cur := atomic.AddInt32(&inflight, 1)
		defer atomic.AddInt32(&inflight, -1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		e.runRegion(ctx, w, ri, regions[ri], critical, cands, &runs[ri])
	})
	ss.ConcurrentPeak = int(peak)

	st.Times.GCPILP, st.Times.GCPGen = 0, 0
	run1, solve1 := e.L.Timing()
	st.Times.GCPILP = solve1 - solve0
	st.Times.GCPGen = (run1 - run0) - st.Times.GCPILP

	// Deadline gate, as in the serial path: nothing before this point
	// mutated committed state, so abandoning the iteration is free.
	if err := ctx.Err(); err != nil {
		st.DeadlineHit = true
		deg("iteration-deadline", "stopped before selection: "+err.Error())
		return st
	}

	// Regions that panicked or overran their budget are redone serially on
	// this goroutine, with the serial mode's per-cell quarantine semantics.
	failed := make(map[int]string, len(quar))
	for _, q := range quar {
		failed[q.index] = q.msg
	}
	for ri := range runs {
		switch {
		case runs[ri].done:
		case runs[ri].timedOut:
			deg("shard-region-budget", fmt.Sprintf("region #%d exceeded its %v budget; redone serially", ri, e.Cfg.ShardRegionBudget))
			e.redoRegion(ctx, ri, regions[ri], critical, cands, &runs[ri], &st)
		default:
			msg := failed[ri]
			if msg == "" {
				msg = "region runner did not complete"
			}
			deg("shard-region-panic", fmt.Sprintf("region #%d quarantined (%s); redone serially", ri, msg))
			e.redoRegion(ctx, ri, regions[ri], critical, cands, &runs[ri], &st)
		}
	}

	// Serial-path bookkeeping over the now-complete candidate table.
	ls1 := e.L.Stats()
	if n := ls1.IncumbentKept - ls0.IncumbentKept; n > 0 {
		deg("legal-incumbent", fmt.Sprintf("%d legalizer ILPs hit their budget; kept best incumbent", n))
	}
	if n := ls1.BudgetDropped - ls0.BudgetDropped; n > 0 {
		deg("legal-dropped", fmt.Sprintf("%d legalizer ILPs hit their budget with no incumbent; candidates dropped", n))
	}
	for _, cs := range cands {
		st.Candidates += len(cs)
	}
	for ri := range runs {
		st.Times.GCP += runs[ri].gcp
		st.Times.ECC += runs[ri].ecc
		st.Times.ILP += runs[ri].ilpT
	}

	// Selection merge: recombine the per-region solves when that is provably
	// the global solution; otherwise run the global serial selection.
	chosen, sol, usedGreedy := e.mergeSelections(ctx, cands, runs, ss)
	st.SolverNodes = sol.Nodes
	st.SolverStatus = sol.Status
	if usedGreedy {
		st.GreedyFallback = true
		deg("selection-fallback", fmt.Sprintf("selection ILP %v; greedy improving selection took over", sol.Status))
	}

	curCost := make(map[int32]float64, len(cands))
	for i := range cands {
		for j := range cands[i] {
			if cands[i][j].isCurrent {
				curCost[cands[i][j].cell] = cands[i][j].cost
			}
		}
	}

	// Update database: speculative region-major merge through one
	// transaction, falling back to a serial replay on any conflict.
	t0 = time.Now()
	txn, moved := e.mergeUpdate(epoch0, chosen, curCost, regions, critical, &st, ss)
	if h := e.Cfg.Hooks.PostUD; h != nil {
		h(e.iter)
	}
	if err := txn.Check(); err != nil {
		txn.Discard()
		st.RolledBack = true
		st.MovedCells, st.ReroutedNets, st.SkippedMoves = 0, 0, 0
		st.EstBefore, st.EstAfter = 0, 0
		deg("iteration-rollback", err.Error())
		if err2 := e.checkInvariants(); err2 != nil {
			e.broken = true
			deg("invariant-unrecoverable", err2.Error())
		}
	} else {
		txn.Commit()
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

// partitionCritical builds the region set for one iteration's critical
// cells from their legalizer windows.
// The partition needs no halo: WindowRect already pads each window by the
// widest macro, so two non-overlapping rects cannot share a site or a moved
// cell — which is all selection disjointness requires. Routing-demand
// interactions are the merge's business (ShardHalo inflates the merge
// footprints, not the partition).
func (e *Engine) partitionCritical(critical []int32) []shard.Region {
	rects := make([]geom.Rect, len(critical))
	for i, cid := range critical {
		rects[i] = e.L.WindowRect(cid)
	}
	return shard.Partition(shard.Input{
		Die:     e.D.Die,
		Targets: e.Cfg.ShardRegions,
		Rects:   rects,
	})
}

// defaultShardHalo is the footprint/partition margin in GCells when
// Config.ShardHalo is unset: one GCell covers the pattern router's
// bbox+1 read window, the second absorbs pin-to-GCell rounding.
const defaultShardHalo = 2

// runRegion is one region's speculative pipeline: GCP and ECC per member
// cell, then the region's selection solve, all on worker w's scratch. The
// budget is checked at cell boundaries; overrun abandons the region for the
// serial redo. A panic anywhere quarantines the whole region (parallelFor
// catches it), likewise redone serially.
func (e *Engine) runRegion(ctx context.Context, w, ri int, reg shard.Region, critical []int32, cands [][]candidate, run *regionRun) {
	start := time.Now()
	budget := e.Cfg.ShardRegionBudget
	over := func() bool { return budget > 0 && time.Since(start) > budget }

	// The hook fires inside the budget clock so injected region slowdowns
	// count against ShardRegionBudget; a panic here propagates to the worker
	// pool's recover and quarantines exactly this region.
	if h := e.Cfg.Hooks.ShardRegion; h != nil {
		h(e.iter, ri)
	}

	t0 := time.Now()
	for _, mi := range reg.Members {
		if over() {
			run.timedOut = true
			return
		}
		cands[mi] = e.generateOne(w, mi, critical[mi])
	}
	run.gcp = time.Since(t0)

	t0 = time.Now()
	ov := e.ovs[w]
	sub := make([][]candidate, len(reg.Members))
	for k, mi := range reg.Members {
		if over() {
			run.timedOut = true
			return
		}
		e.estimateGroup(ov, mi, cands[mi])
		sub[k] = cands[mi]
	}
	run.ecc = time.Since(t0)

	if over() {
		run.timedOut = true
		return
	}
	t0 = time.Now()
	run.sub = sub
	run.chosen, run.sol, run.usedGreedy = e.selectCandidates(ctx, sub)
	run.ilpT = time.Since(t0)
	run.done = true
}

// redoRegion reruns a failed region serially on the calling goroutine,
// reproducing the serial mode's per-cell quarantine semantics: a cell whose
// generation panics keeps exactly its current position, a group whose
// pricing panics prices "stay put free, every move infinite" — each with
// the serial path's worker-panic degradation. The redo is complete: partial
// results from the failed attempt are overwritten.
func (e *Engine) redoRegion(ctx context.Context, ri int, reg shard.Region, critical []int32, cands [][]candidate, run *regionRun, st *IterStats) {
	deg := func(kind, detail string) {
		st.Degradations = append(st.Degradations, Degradation{Iter: e.iter, Kind: kind, Detail: detail})
	}
	sub := make([][]candidate, len(reg.Members))
	t0 := time.Now()
	for k, mi := range reg.Members {
		func() {
			defer func() {
				if p := recover(); p != nil {
					cands[mi] = e.stayPutOnly(critical[mi])
					deg("worker-panic", fmt.Sprintf("GCP cell #%d quarantined: %v", mi, p))
					st.Quarantined++
				}
			}()
			cands[mi] = e.generateOne(0, mi, critical[mi])
		}()
		sub[k] = cands[mi]
	}
	run.gcp = time.Since(t0)
	t0 = time.Now()
	for _, mi := range reg.Members {
		func() {
			defer func() {
				if p := recover(); p != nil {
					resetGroupCosts(cands[mi])
					deg("worker-panic", fmt.Sprintf("ECC group #%d quarantined: %v", mi, p))
					st.Quarantined++
				}
			}()
			e.estimateGroup(e.ovs[0], mi, cands[mi])
		}()
	}
	run.ecc = time.Since(t0)
	t0 = time.Now()
	run.sub = sub
	run.chosen, run.sol, run.usedGreedy = e.selectCandidates(ctx, sub)
	run.ilpT = time.Since(t0)
	run.timedOut = false
	run.done = true
	st.Shard.SerialRedo++
}

// mergeSelections recombines the per-region selection solves into the
// global chosen set, or falls back to the global serial selection when the
// recombination is not provably identical to it.
//
// The recombination is exact when (a) every region solved to certified
// optimality without the greedy fallback, (b) no selection hooks are
// installed (a hook sees one global solve on the serial path, N regional
// solves here), (c) no time limit can bind (per-solve or ctx deadline —
// wall-clock budgets expire at different points in different schedules),
// and (d) the summed node count stays below the shared MaxNodes budget.
// Under those conditions the global model is the disjoint union of the
// region models, the solver decomposes it into the same components with
// per-component node counts that are pure functions of the component
// models, and its budget cannot expire mid-sequence — so per-component
// optima, the total node count, and the Optimal status all coincide with
// the serial solve. The chosen order is reconstructed from the serial
// path's invariant: pruned-fixed cells first in ascending cell order, then
// the active cells' picks in ascending cell order.
func (e *Engine) mergeSelections(ctx context.Context, cands [][]candidate, runs []regionRun, ss *ShardIterStats) (_ []*candidate, _ ilp.Solution, usedGreedy bool) {
	exact := e.Cfg.Hooks.ILPOptions == nil && e.Cfg.Hooks.SolveSelection == nil &&
		e.Cfg.ILPTimeLimit == 0
	if _, hasDL := ctx.Deadline(); hasDL {
		exact = false
	}
	totalNodes := 0
	for ri := range runs {
		totalNodes += runs[ri].sol.Nodes
		if runs[ri].usedGreedy || runs[ri].sol.Status != ilp.Optimal {
			exact = false
		}
	}
	if e.Cfg.SelectMaxNodes > 0 && totalNodes >= e.Cfg.SelectMaxNodes {
		exact = false
	}
	if !exact {
		ss.SelectFallback = true
		return e.selectCandidates(ctx, cands)
	}

	pick := make(map[int32]*candidate)
	for ri := range runs {
		for _, c := range runs[ri].chosen {
			pick[c.cell] = c
		}
	}
	chosen, active := pruneDominated(cands)
	for _, cc := range active {
		c, ok := pick[cands[cc.ci][cc.list[0]].cell]
		if !ok {
			// A region's solve dropped an active cell: cannot happen (the
			// region saw the same candidates and costs), but fall back
			// rather than emit a short chosen set.
			ss.SelectFallback = true
			return e.selectCandidates(ctx, cands)
		}
		chosen = append(chosen, c)
	}
	return chosen, ilp.Solution{Status: ilp.Optimal, HasIncumbent: true, Nodes: totalNodes}, false
}

// mergeUpdate is the update-database phase of a sharded iteration: apply
// the chosen moves, then reroute every affected net region-major inside one
// transaction, optimistically assuming regions' demand writes stay inside
// their declared GCell footprints. The journal check afterwards proves the
// assumption on the O(Δ) op log; any violation (or any maze fallback, whose
// demand reads are unbounded) discards the transaction and replays the
// whole update in the serial order. Footprint disjointness plus bounded
// reads make the region-major order a permutation of the serial ascending
// order over commuting operations, so a clean speculative merge commits
// bit-identical state.
func (e *Engine) mergeUpdate(epoch0 uint64, chosen []*candidate, curCost map[int32]float64, regions []shard.Region, critical []int32, st *IterStats, ss *ShardIterStats) (*view.Txn, []int32) {
	var ud IterStats // scratch for the speculative attempt's bookkeeping
	txn := e.V.Begin(epoch0)
	movedSet := e.applyMoveSet(txn, chosen, curCost, &ud)
	nets := e.affectedNets(movedSet)

	regionNets, footprints, ok := e.planRegionReroutes(chosen, regions, critical, nets)
	serialized := !ok
	if !serialized {
	pairs:
		for a := 0; a < len(footprints); a++ {
			for b := a + 1; b < len(footprints); b++ {
				if footprints[a].Overlaps(footprints[b]) {
					ss.MergeConflicts++
					serialized = true
					break pairs
				}
			}
		}
	}

	if serialized {
		// Footprints overlap (or a net has no owner): reroute in the serial
		// global order directly — nothing speculative to verify.
		ss.MergeSerialized = true
		for _, nid := range nets {
			txn.RerouteNet(nid)
		}
		ud.ReroutedNets = len(nets)
		copyUDStats(st, &ud)
		return txn, sortedCellIDs(movedSet)
	}

	// Region-major speculative reroutes, each region's demand ops tagged as
	// one journal segment.
	replay := false
	for ri := range regions {
		if len(regionNets[ri]) == 0 {
			continue
		}
		txn.BeginSegment(ri)
		for _, nid := range regionNets[ri] {
			if txn.RerouteNetTracked(nid) {
				ss.MazeReroutes++
				replay = true
			}
		}
	}
	if !replay {
		for _, seg := range txn.Segments() {
			fp := footprints[seg.Tag]
			for _, op := range seg.Ops {
				x, y := e.G.EdgeCell(op.Key)
				if !fp.Contains(geom.Pt(x, y)) {
					ss.MergeConflicts++
					replay = true
					break
				}
			}
			if replay {
				break
			}
		}
	}
	if replay {
		// A maze fallback read demand outside its footprint, or a write
		// escaped one: the speculative order is not provably serial-
		// equivalent. Discard everything and replay in the serial order.
		// The fresh transaction begins at the *current* version — the
		// discarded mutations advanced the epoch, and epoch0 bookkeeping
		// would no longer add up — which is sound because Discard restored
		// the state bit-exactly.
		ss.MergeSerialized = true
		txn.Discard()
		ud = IterStats{}
		txn = e.V.Begin(e.V.Version())
		movedSet = e.applyMoveSet(txn, chosen, curCost, &ud)
		for _, nid := range nets {
			txn.RerouteNet(nid)
		}
	}
	ud.ReroutedNets = len(nets)
	copyUDStats(st, &ud)
	return txn, sortedCellIDs(movedSet)
}

// copyUDStats copies the update-database bookkeeping of the attempt that
// actually committed into the iteration stats.
func copyUDStats(st, ud *IterStats) {
	st.EstBefore, st.EstAfter = ud.EstBefore, ud.EstAfter
	st.MovedCells, st.SkippedMoves = ud.MovedCells, ud.SkippedMoves
	st.ReroutedNets = ud.ReroutedNets
}

// planRegionReroutes assigns every affected net to the region that moved
// (one of) its cells and computes each region's demand footprint: the GCell
// bounding box of its nets' post-move terminals and pre-iteration routes,
// inflated by the halo. All demand writes of a region's reroutes — old
// route out, new route in — land inside its footprint unless the router
// fell back to maze search, and the pattern router's demand *reads* stay
// within one GCell of the terminal bbox, which the halo (≥1) covers; that
// is what makes disjoint footprints a commutation proof. ok is false when
// some net touches no moved cell (cannot happen; bail to the serial order
// rather than guess an owner).
func (e *Engine) planRegionReroutes(chosen []*candidate, regions []shard.Region, critical []int32, nets []int32) (regionNets [][]int32, footprints []geom.Rect, ok bool) {
	// Critical cell -> region ordinal, then moved cell -> region via the
	// candidate that moves it (conflict relocations are confined to the
	// critical cell's window, hence its region).
	cellRegion := make(map[int32]int)
	for ri, reg := range regions {
		for _, mi := range reg.Members {
			cellRegion[critical[mi]] = ri
		}
	}
	moverRegion := make(map[int32]int)
	for _, c := range chosen {
		if c.isCurrent {
			continue
		}
		ri, okc := cellRegion[c.cell]
		if !okc {
			return nil, nil, false
		}
		for _, mc := range c.movedCells() {
			moverRegion[mc] = ri
		}
	}

	// Net -> owning region: the lowest ordinal among regions whose moved
	// cells touch it. Nets stay ascending within each region (affectedNets
	// returns them ascending).
	regionNets = make([][]int32, len(regions))
	owners := make([]int, len(nets))
	for i, nid := range nets {
		owner := -1
		for _, pr := range e.D.Nets[nid].Pins {
			if ri, okm := moverRegion[pr.Cell]; okm && (owner < 0 || ri < owner) {
				owner = ri
			}
		}
		if owner < 0 {
			return nil, nil, false
		}
		owners[i] = owner
		regionNets[owner] = append(regionNets[owner], nid)
	}

	// Footprints in GCell space, from one quiescent overlay (positions are
	// already post-move at this point — the moves committed above).
	halo := e.Cfg.ShardHalo
	if halo <= 0 {
		halo = defaultShardHalo
	}
	ov := e.V.Overlay()
	type bbox struct {
		minX, minY, maxX, maxY int
		any                    bool
	}
	boxes := make([]bbox, len(regions))
	grow := func(b *bbox, x, y int) {
		if !b.any {
			b.minX, b.minY, b.maxX, b.maxY = x, y, x, y
			b.any = true
			return
		}
		b.minX, b.maxX = min(b.minX, x), max(b.maxX, x)
		b.minY, b.maxY = min(b.minY, y), max(b.maxY, y)
	}
	for i, nid := range nets {
		b := &boxes[owners[i]]
		for _, p := range ov.NetTerminals(nid) {
			x, y := e.G.GCellOf(p)
			grow(b, x, y)
		}
		if rt := e.V.Route(nid); rt != nil {
			for _, w := range rt.Wires {
				grow(b, w.X, w.Y)
			}
			for _, v := range rt.Vias {
				grow(b, v.X, v.Y)
			}
		}
	}
	footprints = make([]geom.Rect, len(regions))
	for ri, b := range boxes {
		if !b.any {
			continue // region rerouted nothing; empty rect overlaps nothing
		}
		footprints[ri] = geom.R(b.minX, b.minY, b.maxX+1, b.maxY+1).Expand(halo)
	}
	return regionNets, footprints, true
}
