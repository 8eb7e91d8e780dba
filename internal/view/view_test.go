package view_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/view"
)

// buildView generates a routed design and wraps it in a view, mirroring how
// flow.globalRoute constructs the live session.
func buildView(tb testing.TB, spec ispd.Spec) *view.View {
	tb.Helper()
	d, err := ispd.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	r.RouteAll()
	return view.New(d, g, r)
}

func fixtureSpec() ispd.Spec {
	return ispd.Spec{
		Name: "view_fixture", Node: "n45", Cells: 120, Nets: 100,
		Utilisation: 0.88, Hotspots: 2, IOFraction: 0.03, Seed: 7,
	}
}

// swapMoves builds a batch-legal move set by pairing same-width movable
// cells within a row and swapping their positions — db.MoveCells accepts a
// swap because targets are checked with every mover lifted out.
func swapMoves(d *db.Design, maxPairs int) map[int32]geom.Point {
	type slot struct {
		row int32
		w   int
	}
	seen := map[slot]*db.Cell{}
	moves := map[int32]geom.Point{}
	pairs := 0
	for _, c := range d.Cells {
		if c.Fixed || pairs >= maxPairs {
			continue
		}
		k := slot{c.Row, c.Rect().W()}
		p, ok := seen[k]
		if !ok {
			seen[k] = c
			continue
		}
		if p.Pos == c.Pos {
			continue
		}
		moves[p.ID] = c.Pos
		moves[c.ID] = p.Pos
		pairs++
		delete(seen, k)
	}
	return moves
}

// affectedNets returns the sorted, deduplicated nets touching any mover.
func affectedNets(d *db.Design, moves map[int32]geom.Point) []int32 {
	set := map[int32]bool{}
	for id := range moves {
		for _, nid := range d.Cells[id].Nets {
			set[nid] = true
		}
	}
	nids := make([]int32, 0, len(set))
	for nid := range set {
		nids = append(nids, nid)
	}
	sort.Slice(nids, func(i, j int) bool { return nids[i] < nids[j] })
	return nids
}

// TestOverlayDiscardLeavesBaseUntouched pins the speculation layer's core
// property: staging and reading any number of hypothetical moves writes
// nothing to the base — state and grid epoch are byte-identical after
// Discard.
func TestOverlayDiscardLeavesBaseUntouched(t *testing.T) {
	v := buildView(t, fixtureSpec())
	st0 := v.Materialize()
	epoch0 := v.Version()

	ov := v.Overlay()
	d := v.Design()
	for i, c := range d.Cells {
		if i >= 40 {
			break
		}
		// Positions need not be legal: the overlay is a reading model, not
		// a placement change.
		ov.Stage(c.ID, geom.Point{X: c.Pos.X + 1000*(i%5), Y: c.Pos.Y + 500*(i%3)})
	}
	for _, nid := range ov.AffectedNets() {
		if pts := ov.NetTerminals(nid); len(pts) == 0 {
			t.Fatalf("net %d: no terminals", nid)
		}
	}
	for _, id := range ov.Staged() {
		_ = ov.Pos(id)
	}
	ov.Discard()

	if got := v.Version(); got != epoch0 {
		t.Fatalf("grid epoch moved %d -> %d: overlay touched the base", epoch0, got)
	}
	if st1 := v.Materialize(); !reflect.DeepEqual(st0, st1) {
		t.Fatal("base state changed across Overlay stage/Discard")
	}
}

// TestOverlays pins the per-worker overlay contract: overlays forked from
// one view are independent — each sees its own staged positions only — and
// Discard returns an overlay to the base.
func TestOverlays(t *testing.T) {
	v := buildView(t, fixtureSpec())
	d := v.Design()
	a, b := v.Overlay(), v.Overlay()
	var mover int32 = -1
	for _, c := range d.Cells {
		if !c.Fixed {
			mover = c.ID
			break
		}
	}
	if mover < 0 {
		t.Fatal("fixture has no movable cell")
	}
	base := b.Pos(mover)
	staged := base.Add(geom.Point{X: 1})
	a.Stage(mover, staged)
	if got := a.Pos(mover); got != staged {
		t.Errorf("staging overlay reads %v, staged %v", got, staged)
	}
	if got := b.Pos(mover); got != base {
		t.Errorf("sibling overlay reads %v, want base %v — overlays are not independent", got, base)
	}
	a.Discard()
	if got := a.Pos(mover); got != base {
		t.Errorf("after Discard overlay reads %v, want base %v", got, base)
	}
}

// TestTxnCheckCatchesOutOfBandDemand makes each of Check's demand checks
// fire: a grid write just before Begin breaks the epoch accounting, and a
// wire or via write that bypasses the transaction's route swaps while it is
// open leaves a journalled delta the routes do not explain.
func TestTxnCheckCatchesOutOfBandDemand(t *testing.T) {
	cases := []struct {
		name string
		// before runs between reading the version and Begin; during runs
		// with the transaction open, after one legitimate reroute.
		before, during func(g *grid.Grid)
		want           string
	}{
		{
			name:   "write-before-begin",
			before: func(g *grid.Grid) { g.AddWire(0, 0, 1, 1) },
			want:   "demand mutated outside the transaction",
		},
		{
			name:   "wire-during-txn",
			during: func(g *grid.Grid) { g.AddWire(0, 0, 1, 1) },
			want:   "grid wire demand drift",
		},
		{
			name:   "via-during-txn",
			during: func(g *grid.Grid) { g.AddVia(0, 0, 0, 1) },
			want:   "grid via demand drift",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := buildView(t, fixtureSpec())
			g := v.Grid()
			epoch0 := v.Version()
			if tc.before != nil {
				tc.before(g)
			}
			txn := v.Begin(epoch0)
			defer txn.Discard()
			txn.RerouteNet(0)
			if tc.during != nil {
				tc.during(g)
			}
			err := txn.Check()
			if err == nil {
				t.Fatalf("Check passed; want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestTxnDiscardRestoresBaseState checks the transaction undo path in
// isolation: moves plus reroutes followed by Discard leave positions,
// history, routes and every demand value identical to the pre-transaction
// state.
func TestTxnDiscardRestoresBaseState(t *testing.T) {
	v := buildView(t, fixtureSpec())
	d := v.Design()
	moves := swapMoves(d, 6)
	if len(moves) == 0 {
		t.Fatal("fixture yielded no swappable cells")
	}
	st0 := v.Materialize()

	txn := v.Begin(v.Version())
	if err := txn.MoveCells(moves); err != nil {
		t.Fatalf("applying swaps: %v", err)
	}
	for _, nid := range affectedNets(d, moves) {
		txn.RerouteNet(nid)
	}
	if err := txn.Check(); err != nil {
		t.Fatalf("healthy transaction failed Check: %v", err)
	}
	txn.Discard()

	if st1 := v.Materialize(); !reflect.DeepEqual(st0, st1) {
		t.Fatal("base state differs after Txn Discard")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after Discard: %v", err)
	}
}

// TestTxnDiscardMatchesManualRollback replays the pre-view rollback recipe
// (full position snapshot, manual reroute with old-route capture, sorted
// rip-up/re-commit, position restore) against Txn Begin/Discard on crp_test1
// — the two paths must land on byte-identical state, which is what made the
// refactor safe to land under the bit-identity suites.
func TestTxnDiscardMatchesManualRollback(t *testing.T) {
	spec := ispd.Suite(0.02)[0] // crp_test1
	vOld := buildView(t, spec)
	vNew := buildView(t, spec)
	if !reflect.DeepEqual(vOld.Materialize(), vNew.Materialize()) {
		t.Fatal("identical specs generated different sessions")
	}
	moves := swapMoves(vOld.Design(), 8)
	if len(moves) == 0 {
		t.Fatal("crp_test1 yielded no swappable cells")
	}
	nids := affectedNets(vOld.Design(), moves)

	// Old path: the hand-rolled snapshot/rollback crp.Engine used before the
	// view layer owned it.
	dOld, rOld := vOld.Design(), vOld.Router()
	pre := dOld.Snapshot()
	oldRoutes := map[int32]*global.Route{}
	if err := dOld.MoveCells(moves); err != nil {
		t.Fatalf("old path moves: %v", err)
	}
	for _, nid := range nids {
		if _, ok := oldRoutes[nid]; !ok {
			oldRoutes[nid] = rOld.Routes[nid]
		}
		rOld.RerouteNet(nid)
	}
	for _, nid := range nids { // already ascending
		rOld.RipUp(nid)
		rOld.Commit(oldRoutes[nid]) // Commit(nil) is a no-op
	}
	if err := dOld.Restore(pre); err != nil {
		t.Fatalf("old path restore: %v", err)
	}

	// New path: the same mutation through one transaction.
	txn := vNew.Begin(vNew.Version())
	if err := txn.MoveCells(moves); err != nil {
		t.Fatalf("new path moves: %v", err)
	}
	for _, nid := range nids {
		txn.RerouteNet(nid)
	}
	txn.Discard()

	if !reflect.DeepEqual(vOld.Materialize(), vNew.Materialize()) {
		t.Fatal("manual rollback and Txn Discard diverged")
	}
}

// TestTxnCommitKeepsMutations is the commit-side complement: committed moves
// and reroutes survive, the design stays legal, and the epoch advanced.
func TestTxnCommitKeepsMutations(t *testing.T) {
	v := buildView(t, fixtureSpec())
	d := v.Design()
	moves := swapMoves(d, 4)
	if len(moves) == 0 {
		t.Fatal("fixture yielded no swappable cells")
	}
	epoch0 := v.Version()

	txn := v.Begin(epoch0)
	if err := txn.MoveCells(moves); err != nil {
		t.Fatalf("applying swaps: %v", err)
	}
	nids := affectedNets(d, moves)
	for _, nid := range nids {
		txn.RerouteNet(nid)
	}
	if err := txn.Check(); err != nil {
		t.Fatalf("healthy transaction failed Check: %v", err)
	}
	txn.Commit()

	for id, want := range moves {
		if got := v.Pos(id); got != want {
			t.Errorf("cell %d at %v after commit, want %v", id, got, want)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after Commit: %v", err)
	}
	if v.Version() == epoch0 && len(nids) > 0 {
		t.Error("reroutes committed but grid epoch never advanced")
	}
}

// fuzzBase is the shared fuzz fixture: built once, reset to st0 after every
// execution so each input starts from the same state.
var fuzzBase struct {
	once sync.Once
	v    *view.View
	st0  view.State
}

// FuzzOverlayCommit drives random mutation batches through the overlay and
// transaction layers and checks the layering contract: overlay reads see
// staged positions, Check always passes on a transaction that did all its
// mutation through the Txn API, Discard restores the base byte-identically,
// and Commit leaves a legal design.
func FuzzOverlayCommit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, true)
	f.Add([]byte{0xff, 0x00, 0x80, 0x40}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, commit bool) {
		fuzzBase.once.Do(func() {
			spec := fixtureSpec()
			spec.Name, spec.Cells, spec.Nets, spec.Seed = "view_fuzz", 80, 60, 11
			fuzzBase.v = buildView(t, spec)
			fuzzBase.st0 = fuzzBase.v.Materialize()
		})
		v := fuzzBase.v
		d := v.Design()
		n := len(d.Cells)

		// Decode the input into a move batch: pairs of cell indices whose
		// positions we try to swap. Illegal batches are rejected wholesale
		// by MoveCells and contribute only reroutes.
		moves := map[int32]geom.Point{}
		for i := 0; i+1 < len(data) && len(moves) < 16; i += 2 {
			a := d.Cells[int(data[i])%n]
			b := d.Cells[int(data[i+1])%n]
			if a.ID == b.ID || a.Fixed || b.Fixed {
				continue
			}
			if _, dup := moves[a.ID]; dup {
				continue
			}
			if _, dup := moves[b.ID]; dup {
				continue
			}
			moves[a.ID] = b.Pos
			moves[b.ID] = a.Pos
		}

		// Speculation layer first: staged reads must see the hypothetical
		// positions without touching the base.
		ov := v.Overlay()
		ov.StageSorted(moves)
		for id, want := range moves {
			if got := ov.Pos(id); got != want {
				t.Fatalf("overlay Pos(%d) = %v, staged %v", id, got, want)
			}
		}
		ov.Discard()

		txn := v.Begin(v.Version())
		applied := txn.MoveCells(moves) == nil
		for i := range data {
			if i >= 8 {
				break
			}
			txn.RerouteNet(int32(int(data[i]) % len(d.Nets)))
		}
		if err := txn.Check(); err != nil {
			t.Fatalf("transaction-only mutation failed Check (applied=%v): %v", applied, err)
		}
		if commit {
			txn.Commit()
			if err := d.Validate(); err != nil {
				t.Fatalf("design invalid after Commit: %v", err)
			}
			if err := v.Restore(fuzzBase.st0); err != nil {
				t.Fatalf("resetting fixture: %v", err)
			}
		} else {
			txn.Discard()
			if st := v.Materialize(); !reflect.DeepEqual(fuzzBase.st0, st) {
				t.Fatal("base state differs after Discard")
			}
		}
	})
}
