package view

import (
	"fmt"
	"math"
	"sort"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/global"
)

// Txn is the write layer: one transaction of committed-state mutation —
// the CR&P update-database phase uses exactly one per iteration. All writes
// go through it (MoveCells, RerouteNet); it keeps what undo needs:
//
//   - a full position pre-image. Positions are deliberately NOT O(Δ): the
//     base design is shared with code outside the transaction (hooks, fault
//     injection), and db.Restore over the full snapshot is what lets a
//     Discard repair even out-of-band position corruption — the behaviour
//     the chaos suite's rollback test pins down. Demand and routes, whose
//     stores the transaction exclusively owns, are undone O(Δ).
//   - each rerouted net's pre-transaction route pointer, captured on first
//     touch (RerouteNet rips the old route out of the grid before the new
//     one commits, so the pointer is the only remaining handle).
//   - a grid demand journal recording every AddWire/AddVia while the
//     transaction is open.
//
// Check verifies the transaction's invariants on the journal diff in O(Δ);
// the caller then resolves the transaction with exactly one of Commit or
// Discard.
type Txn struct {
	v *View

	pre        db.PositionSnapshot
	sinceEpoch uint64
	journal    *grid.Journal

	swaps    []routeSwap
	swapped  map[int32]bool
	netSwaps []netSwap
	done     bool
}

// routeSwap records one net's pre-transaction route (nil = was unrouted).
type routeSwap struct {
	nid int32
	old *global.Route
}

// netSwap records one net's pre-transaction cell-pin terminal list, captured
// by ApplyDelta when it rewires the net.
type netSwap struct {
	nid int32
	old []db.PinRef
}

// NetChange is one net rewiring in a DeltaOps batch: the net's complete new
// cell-pin terminal list (IO terminals are untouched).
type NetChange struct {
	Net  int32
	Pins []db.PinRef
}

// DeltaOps is a resolved ECO delta expressed in design IDs: a batch of cell
// moves plus net rewirings, applied transactionally by Txn.ApplyDelta.
// Structural edits (added/removed cells) cannot be expressed here — they
// change the ID space and force a design rebuild (see internal/eco).
type DeltaOps struct {
	Moves map[int32]geom.Point
	Nets  []NetChange
}

// Begin opens a write transaction over the view's committed state.
// sinceEpoch is the demand version observed when the enclosing read phases
// started (View.Version at iteration entry); Check uses it to prove no
// demand mutation anywhere in the iteration bypassed the transaction.
// At most one transaction can be open per grid (the demand journal enforces
// it).
func (v *View) Begin(sinceEpoch uint64) *Txn {
	t := &Txn{
		v:          v,
		pre:        v.d.Snapshot(),
		sinceEpoch: sinceEpoch,
		journal:    grid.NewJournal(),
		swapped:    map[int32]bool{},
	}
	v.g.AttachJournal(t.journal)
	return t
}

// MoveCells applies a group of cell moves atomically (all legality checks
// are db.MoveCells'); on error nothing moved.
func (t *Txn) MoveCells(moves map[int32]geom.Point) error {
	return t.v.d.MoveCells(moves)
}

// RerouteNet rips up and reroutes net nid against current demand,
// remembering the pre-transaction route the first time the net is touched.
func (t *Txn) RerouteNet(nid int32) {
	if !t.swapped[nid] {
		t.swapped[nid] = true
		t.swaps = append(t.swaps, routeSwap{nid: nid, old: t.v.r.Routes[nid]})
	}
	t.v.r.RerouteNet(nid)
}

// ApplyDelta applies a resolved ECO delta through the transaction: the cell
// moves as one atomic batch, then each net rewiring (pre-image captured for
// Discard), then a rip-up/reroute of every affected net — the union of the
// moved cells' nets and the rewired nets, in ascending net-ID order so the
// demand mutation sequence is deterministic. The whole batch is validated
// before anything mutates; on error the committed state is unchanged and the
// transaction remains open (the caller decides whether to Discard).
func (t *Txn) ApplyDelta(ops DeltaOps) error {
	d := t.v.d
	nets := append([]NetChange(nil), ops.Nets...)
	sort.Slice(nets, func(a, b int) bool { return nets[a].Net < nets[b].Net })
	for i, nc := range nets {
		if nc.Net < 0 || int(nc.Net) >= len(d.Nets) {
			return fmt.Errorf("view: delta rewires unknown net %d (have %d nets)", nc.Net, len(d.Nets))
		}
		if i > 0 && nets[i-1].Net == nc.Net {
			return fmt.Errorf("view: delta rewires net %d twice", nc.Net)
		}
		for _, pr := range nc.Pins {
			if pr.Cell < 0 || int(pr.Cell) >= len(d.Cells) {
				return fmt.Errorf("view: delta rewires net %d to unknown cell %d", nc.Net, pr.Cell)
			}
			if c := d.Cells[pr.Cell]; pr.Pin < 0 || int(pr.Pin) >= len(c.Macro.Pins) {
				return fmt.Errorf("view: delta rewires net %d to pin %d of cell %q (macro %q has %d pins)",
					nc.Net, pr.Pin, c.Name, c.Macro.Name, len(c.Macro.Pins))
			}
		}
		if len(nc.Pins)+len(d.Nets[nc.Net].IOs) < 2 {
			return fmt.Errorf("view: delta leaves net %d with %d terminals", nc.Net, len(nc.Pins)+len(d.Nets[nc.Net].IOs))
		}
	}
	for cid := range ops.Moves {
		if cid < 0 || int(cid) >= len(d.Cells) {
			return fmt.Errorf("view: delta moves unknown cell %d (have %d cells)", cid, len(d.Cells))
		}
	}
	// Affected nets are collected against pre-move connectivity; a rewiring
	// can only add nets that are themselves in the rewired set, so the union
	// below covers post-change connectivity too.
	affected := map[int32]bool{}
	for cid := range ops.Moves {
		for _, nid := range d.Cells[cid].Nets {
			affected[nid] = true
		}
	}
	if len(ops.Moves) > 0 {
		if err := t.MoveCells(ops.Moves); err != nil {
			return err
		}
	}
	for _, nc := range nets {
		old, err := d.ReconnectNet(nc.Net, nc.Pins)
		if err != nil {
			// Unreachable after the validation above; surface it rather than
			// guessing at partial-undo semantics.
			return fmt.Errorf("view: delta rewire failed after validation: %w", err)
		}
		t.netSwaps = append(t.netSwaps, netSwap{nid: nc.Net, old: old})
		affected[nc.Net] = true
	}
	nids := make([]int32, 0, len(affected))
	for nid := range affected {
		nids = append(nids, nid)
	}
	sort.Slice(nids, func(a, b int) bool { return nids[a] < nids[b] })
	for _, nid := range nids {
		t.RerouteNet(nid)
	}
	return nil
}

// Check verifies the transaction's invariants against its own diff, in
// O(Δ) instead of the full-grid drift scan it replaces:
//
//  1. epoch accounting — every demand mutation since sinceEpoch advanced
//     the epoch by one and was recorded in the journal, so a mutation that
//     bypassed the transaction (any phase of the iteration) shows up as an
//     epoch/journal mismatch;
//  2. the journalled per-edge demand deltas must equal the delta implied by
//     the route swaps (old route out, current route in) — the leak/double-
//     count check, now edge-exact rather than total-sum;
//  3. full placement legality (db.Validate), which also catches positions
//     corrupted outside the transaction.
func (t *Txn) Check() error {
	if got, want := t.v.g.Epoch(), t.sinceEpoch+t.journal.Mutations; got != want {
		return fmt.Errorf("grid demand epoch %d, want %d (+%d journalled mutations): demand mutated outside the transaction",
			got, t.sinceEpoch, t.journal.Mutations)
	}
	if err := t.checkDemandDiff(); err != nil {
		return err
	}
	if err := t.v.d.Validate(); err != nil {
		return fmt.Errorf("placement illegal: %w", err)
	}
	return nil
}

// checkDemandDiff compares the journalled demand deltas against the deltas
// the route swaps imply.
func (t *Txn) checkDemandDiff() error {
	g := t.v.g
	expWire := make(map[grid.EdgeKey]float64, len(t.journal.Wire))
	expVia := make(map[grid.EdgeKey]float64, len(t.journal.Vias))
	apply := func(rt *global.Route, sign float64) {
		if rt == nil {
			return
		}
		for _, w := range rt.Wires {
			expWire[g.WireKey(w.X, w.Y, w.L)] += sign
		}
		for _, vp := range rt.Vias {
			expVia[g.ViaKey(vp.X, vp.Y, vp.L)] += sign
		}
	}
	for _, sw := range t.swaps {
		apply(sw.old, -1)
		apply(t.v.r.Routes[sw.nid], +1)
	}
	if err := diffMaps("wire", t.journal.Wire, expWire); err != nil {
		return err
	}
	return diffMaps("via", t.journal.Vias, expVia)
}

// diffMaps compares journalled against expected deltas over the union of
// their keys, reporting the smallest mismatching key so the error message is
// deterministic.
func diffMaps(kind string, got, want map[grid.EdgeKey]float64) error {
	keys := make([]grid.EdgeKey, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].L != keys[b].L {
			return keys[a].L < keys[b].L
		}
		return keys[a].I < keys[b].I
	})
	for _, k := range keys {
		if d := got[k] - want[k]; math.Abs(d) > 1e-6 {
			return fmt.Errorf("grid %s demand drift %+g at edge %v (journalled %g, routes imply %g)",
				kind, d, k, got[k], want[k])
		}
	}
	return nil
}

// Commit keeps the transaction's writes: the undo log is dropped and the
// demand journal detached. The transaction is finished.
func (t *Txn) Commit() {
	t.finish()
}

// Discard undoes the transaction: every touched net is ripped up and its
// pre-transaction route re-committed (restoring grid demand exactly), then
// all cell positions are restored from the pre-image. Nets are processed in
// ascending ID order so the demand mutation sequence is deterministic. The
// transaction is finished.
func (t *Txn) Discard() {
	t.finish()
	nids := make([]int32, 0, len(t.swaps))
	for _, sw := range t.swaps {
		nids = append(nids, sw.nid)
	}
	sort.Slice(nids, func(a, b int) bool { return nids[a] < nids[b] })
	old := make(map[int32]*global.Route, len(t.swaps))
	for _, sw := range t.swaps {
		old[sw.nid] = sw.old
	}
	r := t.v.r
	for _, nid := range nids {
		r.RipUp(nid)
		r.Commit(old[nid]) // Commit(nil) is a no-op: net was unrouted before
	}
	// Undo ApplyDelta rewirings (netlist truth) before placement truth; pin
	// lists are independent of demand accounting, so ordering against the
	// route restore above is immaterial.
	for i := len(t.netSwaps) - 1; i >= 0; i-- {
		ns := t.netSwaps[i]
		if _, err := t.v.d.ReconnectNet(ns.nid, ns.old); err != nil {
			return // pre-image was valid; only out-of-band corruption gets here
		}
	}
	if err := t.v.d.Restore(t.pre); err != nil {
		// Only possible if the cell count changed mid-transaction, which
		// nothing does; the caller's post-discard invariant check will
		// catch the inconsistency.
		return
	}
}

// finish detaches the journal exactly once; a second resolution of the
// same transaction is a programming error worth failing loudly on.
func (t *Txn) finish() {
	if t.done {
		panic("view: transaction resolved twice")
	}
	t.done = true
	t.v.g.DetachJournal()
}
