package eco_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/view"
)

func fixtureSpec() ispd.Spec {
	return ispd.Spec{
		Name: "eco_fixture", Node: "n45", Cells: 120, Nets: 100,
		Utilisation: 0.85, Hotspots: 2, IOFraction: 0.03, Seed: 7,
	}
}

func fixtureDesign(tb testing.TB) *db.Design {
	tb.Helper()
	d, err := ispd.Generate(fixtureSpec())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestParseStrict pins the malformed-delta contract: unknown fields,
// trailing garbage and broken JSON are structured rejections before any
// design is touched.
func TestParseStrict(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown field", `{"moves":[],"bogus":1}`},
		{"trailing garbage", `{"moves":[]} {"again":true}`},
		{"broken json", `{"moves":[`},
		{"wrong type", `{"moves":"not-a-list"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eco.Parse([]byte(tc.in)); err == nil {
				t.Fatalf("Parse accepted %q", tc.in)
			} else if !strings.Contains(err.Error(), "malformed delta") {
				t.Fatalf("rejection %v is not the structured malformed-delta error", err)
			}
		})
	}
	dl, err := eco.Parse([]byte(`{"design":"x","moves":[{"cell":"c1","x":1,"y":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if dl.Design != "x" || len(dl.Moves) != 1 {
		t.Fatalf("parsed delta %+v lost fields", dl)
	}
}

// TestCanonicalOrderIndependent checks the cache-key foundation: two
// orderings of the same edits canonicalize to identical bytes.
func TestCanonicalOrderIndependent(t *testing.T) {
	a := &eco.Delta{
		Moves:   []eco.CellMove{{Cell: "b", X: 1, Y: 2}, {Cell: "a", X: 3, Y: 4}},
		Removes: []string{"z", "y"},
	}
	b := &eco.Delta{
		Moves:   []eco.CellMove{{Cell: "a", X: 3, Y: 4}, {Cell: "b", X: 1, Y: 2}},
		Removes: []string{"y", "z"},
	}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	if !dequal(t, a, mustParse(t, ca)) {
		t.Fatal("canonical form does not round-trip")
	}
}

func mustParse(t *testing.T, data []byte) *eco.Delta {
	t.Helper()
	dl, err := eco.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return dl
}

// dequal compares deltas up to canonical ordering.
func dequal(t *testing.T, a, b *eco.Delta) bool {
	t.Helper()
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca, cb)
}

// TestValidateRejections drives every class of inadmissible edit through
// Validate and checks the aggregated, structured rejection.
func TestValidateRejections(t *testing.T) {
	d := fixtureDesign(t)
	var movable *db.Cell
	for _, c := range d.Cells {
		if !c.Fixed && len(c.Nets) > 0 {
			movable = c
			break
		}
	}
	if movable == nil {
		t.Fatal("fixture has no movable connected cell")
	}
	cases := []struct {
		name string
		dl   eco.Delta
		want string
	}{
		{"wrong design", eco.Delta{Design: "other"}, "targets design"},
		{"unknown move", eco.Delta{Moves: []eco.CellMove{{Cell: "nope", X: 0, Y: 0}}}, "does not exist"},
		{"duplicate move", eco.Delta{Moves: []eco.CellMove{
			{Cell: movable.Name, X: int(movable.Pos.X), Y: int(movable.Pos.Y)},
			{Cell: movable.Name, X: int(movable.Pos.X), Y: int(movable.Pos.Y)},
		}}, "moved twice"},
		{"off-die move", eco.Delta{Moves: []eco.CellMove{{Cell: movable.Name, X: -1 << 30, Y: 0}}}, movable.Name},
		{"unknown removed", eco.Delta{Removes: []string{"ghost"}}, "does not exist"},
		{"unknown macro add", eco.Delta{Adds: []eco.AddCell{{Name: "new0", Macro: "NOPE", X: 0, Y: 0}}}, "unknown macro"},
		{"existing add", eco.Delta{Adds: []eco.AddCell{{Name: movable.Name, Macro: d.Macros[0].Name, X: 0, Y: 0}}}, "already exists"},
		{"unknown net", eco.Delta{Nets: []eco.NetChange{{Net: "no_such_net", Pins: []eco.PinRef{}}}}, "does not exist"},
		{"remove without rewire", eco.Delta{Removes: []string{movable.Name}}, "rewire it in the same delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.dl.Validate(d)
			if err == nil {
				t.Fatal("Validate accepted an inadmissible delta")
			}
			var ve *eco.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("rejection %T is not a *ValidationError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGenerateDeltaDeterministic pins the seeded generator: same design,
// size and seed yield byte-identical canonical deltas, and the result
// validates against the design it was generated from.
func TestGenerateDeltaDeterministic(t *testing.T) {
	d1 := fixtureDesign(t)
	d2 := fixtureDesign(t)
	a, err := eco.GenerateDelta(d1, 5, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eco.GenerateDelta(d2, 5, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !dequal(t, a, b) {
		t.Fatal("same seed generated different deltas")
	}
	if len(a.Moves) != 5 || len(a.Nets) != 2 {
		t.Fatalf("generator produced %d moves / %d rewires, want 5 / 2", len(a.Moves), len(a.Nets))
	}
	if err := a.Validate(d1); err != nil {
		t.Fatalf("generated delta does not validate: %v", err)
	}
	c, err := eco.GenerateDelta(fixtureDesign(t), 5, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	if dequal(t, a, c) {
		t.Fatal("different seeds generated identical deltas")
	}
}

// TestTrackerGrowth exercises the dirty-region mechanics the convergence
// ladder is built on: halo inflation, coalescing, the grew signal, Widen
// and CoversDie.
func TestTrackerGrowth(t *testing.T) {
	die := geom.R(0, 0, 1000, 1000)
	tr := eco.NewTracker(die, 10)
	if !tr.Add(geom.R(100, 100, 120, 120)) {
		t.Fatal("first Add reported no growth")
	}
	if tr.Count() != 1 {
		t.Fatalf("count %d after one Add", tr.Count())
	}
	// Halo-inflated to [90,130]²; a contained rect must not grow coverage.
	if tr.Add(geom.R(100, 100, 110, 110)) {
		t.Fatal("contained rect reported growth")
	}
	if !tr.Overlaps(geom.R(85, 85, 95, 95)) {
		t.Fatal("halo-inflated region misses an overlapping rect")
	}
	if tr.Overlaps(geom.R(500, 500, 510, 510)) {
		t.Fatal("far rect reported as dirty")
	}
	// Overlapping add coalesces instead of accumulating.
	if !tr.Add(geom.R(125, 100, 160, 120)) {
		t.Fatal("overlapping extension reported no growth")
	}
	if tr.Count() != 1 {
		t.Fatalf("coalescing kept %d rects, want 1", tr.Count())
	}
	// Disjoint add becomes a second rect; Widen can merge them.
	if !tr.Add(geom.R(400, 400, 420, 420)) {
		t.Fatal("disjoint add reported no growth")
	}
	if tr.Count() != 2 {
		t.Fatalf("count %d after disjoint add", tr.Count())
	}
	area0 := tr.Area()
	tr.Widen(50)
	if tr.Area() <= area0 {
		t.Fatal("Widen did not grow the region")
	}
	if tr.CoversDie() {
		t.Fatal("region covers the die prematurely")
	}
	tr.Widen(2000)
	if !tr.CoversDie() {
		t.Fatal("die-sized widen does not report CoversDie")
	}
}

// ecoFuzzBase is the shared fuzz fixture: a routed session built once and
// checked against after every apply→revert cycle.
var ecoFuzzBase struct {
	once sync.Once
	v    *view.View
	st0  view.State
	pins [][]db.PinRef
}

// FuzzDeltaApply is the transactional-identity fuzz: any generated delta,
// applied through view.Txn.ApplyDelta and then discarded, must leave the
// base byte-identical — positions, routes, demand and net connectivity.
func FuzzDeltaApply(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2))
	f.Add(int64(99), uint8(0), uint8(3))
	f.Add(int64(7), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nMoves, nNets uint8) {
		ecoFuzzBase.once.Do(func() {
			spec := fixtureSpec()
			spec.Name, spec.Cells, spec.Nets, spec.Seed = "eco_fuzz", 90, 70, 11
			d, err := ispd.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			g := grid.New(d, grid.DefaultParams())
			r := global.New(d, g, global.DefaultConfig())
			r.RouteAll()
			ecoFuzzBase.v = view.New(d, g, r)
			ecoFuzzBase.st0 = ecoFuzzBase.v.Materialize()
			ecoFuzzBase.pins = netPins(d)
		})
		v := ecoFuzzBase.v
		d := v.Design()

		k := int(nMoves % 13)
		m := int(nNets % 5)
		dl, err := eco.GenerateDelta(d, k, m, seed)
		if err != nil {
			t.Skip("generator found no legal edit for this size/seed")
		}
		if err := dl.Validate(d); err != nil {
			t.Fatalf("generated delta does not validate: %v", err)
		}
		ops, err := dl.Resolve(d)
		if err != nil {
			t.Fatalf("resolving generated delta: %v", err)
		}

		txn := v.Begin(v.Version())
		if err := txn.ApplyDelta(ops); err != nil {
			t.Fatalf("ApplyDelta rejected a validated delta: %v", err)
		}
		if err := txn.Check(); err != nil {
			t.Fatalf("transaction failed Check: %v", err)
		}
		txn.Discard()

		if st := v.Materialize(); !reflect.DeepEqual(ecoFuzzBase.st0, st) {
			t.Fatal("base state differs after ApplyDelta+Discard")
		}
		if pins := netPins(d); !reflect.DeepEqual(ecoFuzzBase.pins, pins) {
			t.Fatal("net connectivity differs after ApplyDelta+Discard")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("design invalid after Discard: %v", err)
		}
	})
}

func netPins(d *db.Design) [][]db.PinRef {
	pins := make([][]db.PinRef, len(d.Nets))
	for i, n := range d.Nets {
		pins[i] = append([]db.PinRef(nil), n.Pins...)
	}
	return pins
}

// TestNetByNameAfterStructuralRebuild looks nets up by name in the design
// ApplyStructural rebuilds: every name resolves to the rebuilt design's own
// net, a rewired net carries its new terminals, and Resolve on the rebuilt
// design maps a rewire onto the new net IDs.
func TestNetByNameAfterStructuralRebuild(t *testing.T) {
	d := fixtureDesign(t)
	// Remove a movable cell whose every net keeps two terminals without it,
	// rewiring each of those nets to its remaining pins.
	var victim *db.Cell
	var rewires []eco.NetChange
	for _, c := range d.Cells {
		if c.Fixed || len(c.Nets) == 0 {
			continue
		}
		rewires = rewires[:0]
		for _, nid := range c.Nets {
			n := d.Nets[nid]
			var pins []eco.PinRef
			for _, pr := range n.Pins {
				if pr.Cell != c.ID {
					pc := d.Cells[pr.Cell]
					pins = append(pins, eco.PinRef{Cell: pc.Name, Pin: pc.Macro.Pins[pr.Pin].Name})
				}
			}
			if len(pins)+len(n.IOs) < 2 {
				break
			}
			rewires = append(rewires, eco.NetChange{Net: n.Name, Pins: pins})
		}
		if len(rewires) == len(c.Nets) {
			victim = c
			break
		}
	}
	if victim == nil {
		t.Fatal("fixture has no removable cell")
	}
	d2, err := eco.ApplyStructural(d, &eco.Delta{Removes: []string{victim.Name}, Nets: rewires})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d2.Nets {
		if got, ok := d2.NetByName(n.Name); !ok || got != n {
			t.Fatalf("NetByName(%q) = %v, %v on the rebuilt design, want its net %d", n.Name, got, ok, n.ID)
		}
		if old, _ := d.NetByName(n.Name); old == n {
			t.Fatalf("net %q of the rebuilt design is the base design's net", n.Name)
		}
	}
	for _, nc := range rewires {
		n, _ := d2.NetByName(nc.Net)
		if len(n.Pins) != len(nc.Pins) {
			t.Fatalf("rewired net %q has %d pins, want %d", nc.Net, len(n.Pins), len(nc.Pins))
		}
		for _, pr := range n.Pins {
			if d2.Cells[pr.Cell].Name == victim.Name {
				t.Fatalf("rewired net %q still reaches removed cell %q", nc.Net, victim.Name)
			}
		}
	}
	if _, ok := d2.NetByName(victim.Name + "_no_such_net"); ok {
		t.Fatal("NetByName found a net that does not exist")
	}
	ops, err := (&eco.Delta{Nets: rewires[:1]}).Resolve(d2)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := d2.NetByName(rewires[0].Net); len(ops.Nets) != 1 || ops.Nets[0].Net != want.ID {
		t.Fatalf("Resolve on the rebuilt design: %+v, want net %d", ops.Nets, want.ID)
	}
}
