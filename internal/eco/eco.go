// Package eco owns the incremental-rerun (ECO) delta model: parsing and
// validating externally supplied design edits, resolving them onto a live
// design, tracking the dirty region they perturb, and deciding which rung of
// the convergence ladder a re-run needs (local re-label → widened halo →
// full-run fallback).
//
// A Delta names cells, nets and pins symbolically so it survives across
// processes and re-generated designs; internal/view applies the resolved
// form (view.DeltaOps) transactionally. Structural edits — added or removed
// cells — change the ID space (cell ID == slice index is a db invariant), so
// they cannot ride a transaction: ApplyStructural rebuilds the design and
// the flow falls back to a full run, recorded in Result.Degradations.
package eco

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/view"
)

// PinRef names one net terminal: a cell instance and a pin of its macro.
type PinRef struct {
	Cell string `json:"cell"`
	Pin  string `json:"pin"`
}

// CellMove relocates an existing cell to a new lower-left corner (DBU).
type CellMove struct {
	Cell string `json:"cell"`
	X    int    `json:"x"`
	Y    int    `json:"y"`
}

// NetChange replaces a net's cell-pin terminal list (IO terminals are kept).
type NetChange struct {
	Net  string   `json:"net"`
	Pins []PinRef `json:"pins"`
}

// AddCell instantiates a new cell of an existing macro (structural).
type AddCell struct {
	Name  string `json:"name"`
	Macro string `json:"macro"`
	X     int    `json:"x"`
	Y     int    `json:"y"`
}

// Delta is one ECO: a batch of edits against a named base design. All
// references are by name so a delta can be generated against one process's
// design and applied in another.
type Delta struct {
	// Design, when set, must match the base design's name — a cheap guard
	// against applying a delta to the wrong parent.
	Design  string      `json:"design,omitempty"`
	Moves   []CellMove  `json:"moves,omitempty"`
	Nets    []NetChange `json:"nets,omitempty"`
	Adds    []AddCell   `json:"adds,omitempty"`
	Removes []string    `json:"removes,omitempty"`
}

// Structural reports whether the delta adds or removes cells — the edits
// that change the cell-ID space and force a design rebuild plus full re-run.
func (dl *Delta) Structural() bool { return len(dl.Adds)+len(dl.Removes) > 0 }

// Empty reports a delta with no edits at all.
func (dl *Delta) Empty() bool {
	return len(dl.Moves)+len(dl.Nets)+len(dl.Adds)+len(dl.Removes) == 0
}

// Parse decodes a delta strictly: unknown fields and trailing garbage are
// rejected, so a malformed edit fails loudly before any design is touched.
func Parse(data []byte) (*Delta, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var dl Delta
	if err := dec.Decode(&dl); err != nil {
		return nil, fmt.Errorf("eco: malformed delta: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("eco: malformed delta: trailing data after JSON value")
	}
	return &dl, nil
}

// Canonical returns the delta in canonical form — edits sorted by name,
// compact JSON — so identical edits hash identically regardless of how the
// caller ordered them. The service's ECO cache key is built on this.
func (dl *Delta) Canonical() ([]byte, error) {
	c := Delta{
		Design:  dl.Design,
		Moves:   append([]CellMove(nil), dl.Moves...),
		Nets:    append([]NetChange(nil), dl.Nets...),
		Adds:    append([]AddCell(nil), dl.Adds...),
		Removes: append([]string(nil), dl.Removes...),
	}
	sort.Slice(c.Moves, func(a, b int) bool { return c.Moves[a].Cell < c.Moves[b].Cell })
	sort.Slice(c.Nets, func(a, b int) bool { return c.Nets[a].Net < c.Nets[b].Net })
	sort.Slice(c.Adds, func(a, b int) bool { return c.Adds[a].Name < c.Adds[b].Name })
	sort.Strings(c.Removes)
	return json.Marshal(&c)
}

// ValidationError aggregates every reason a delta is inadmissible, so the
// submitter sees the full list in one structured rejection.
type ValidationError struct {
	Reasons []string
}

func (e *ValidationError) Error() string {
	return "eco: invalid delta: " + strings.Join(e.Reasons, "; ")
}

// Validate checks the delta against a base design without mutating anything:
// every name must resolve, targets must be geometrically legal, edits must
// not repeat, and a removed cell must not leave dangling terminals (every
// net touching it has to be rewired in the same delta). Occupancy conflicts
// between batched moves are intentionally left to the transactional apply,
// which rejects the whole batch atomically.
func (dl *Delta) Validate(d *db.Design) error {
	var reasons []string
	bad := func(format string, args ...any) { reasons = append(reasons, fmt.Sprintf(format, args...)) }

	if dl.Design != "" && dl.Design != d.Name {
		bad("delta targets design %q, base is %q", dl.Design, d.Name)
	}

	removed := map[string]bool{}
	for _, name := range dl.Removes {
		if removed[name] {
			bad("cell %q removed twice", name)
			continue
		}
		removed[name] = true
		c, ok := d.CellByName(name)
		if !ok {
			bad("removed cell %q does not exist", name)
		} else if c.Fixed {
			bad("removed cell %q is fixed", name)
		}
	}

	added := map[string]*db.Macro{}
	for _, a := range dl.Adds {
		if _, dup := added[a.Name]; dup {
			bad("cell %q added twice", a.Name)
			continue
		}
		if _, exists := d.CellByName(a.Name); exists {
			bad("added cell %q already exists", a.Name)
			continue
		}
		m, ok := d.MacroByName(a.Macro)
		if !ok {
			bad("added cell %q uses unknown macro %q", a.Name, a.Macro)
			continue
		}
		added[a.Name] = m
		probe := db.Cell{Name: a.Name, Macro: m}
		if err := d.CheckLegal(&probe, geom.Pt(a.X, a.Y)); err != nil {
			bad("added cell %q: %v", a.Name, err)
		}
	}

	movedCells := map[string]bool{}
	for _, mv := range dl.Moves {
		if movedCells[mv.Cell] {
			bad("cell %q moved twice", mv.Cell)
			continue
		}
		movedCells[mv.Cell] = true
		if removed[mv.Cell] {
			bad("cell %q both moved and removed", mv.Cell)
			continue
		}
		c, ok := d.CellByName(mv.Cell)
		if !ok {
			bad("moved cell %q does not exist", mv.Cell)
			continue
		}
		if c.Fixed {
			bad("moved cell %q is fixed", mv.Cell)
			continue
		}
		if err := d.CheckLegal(c, geom.Pt(mv.X, mv.Y)); err != nil {
			bad("moved cell %q: %v", mv.Cell, err)
		}
	}

	// pinMacro resolves the macro a named terminal cell would have after the
	// delta, admitting added cells and rejecting removed ones.
	pinMacro := func(cell string) (*db.Macro, error) {
		if removed[cell] {
			return nil, fmt.Errorf("cell %q is removed by this delta", cell)
		}
		if m, ok := added[cell]; ok {
			return m, nil
		}
		if c, ok := d.CellByName(cell); ok {
			return c.Macro, nil
		}
		return nil, fmt.Errorf("cell %q does not exist", cell)
	}
	rewired := map[string]bool{}
	for _, nc := range dl.Nets {
		if rewired[nc.Net] {
			bad("net %q rewired twice", nc.Net)
			continue
		}
		rewired[nc.Net] = true
		net, ok := d.NetByName(nc.Net)
		if !ok {
			bad("rewired net %q does not exist", nc.Net)
			continue
		}
		seen := map[PinRef]bool{}
		for _, pr := range nc.Pins {
			if seen[pr] {
				bad("net %q lists terminal %s/%s twice", nc.Net, pr.Cell, pr.Pin)
				continue
			}
			seen[pr] = true
			m, err := pinMacro(pr.Cell)
			if err != nil {
				bad("net %q: %v", nc.Net, err)
				continue
			}
			if pinIndex(m, pr.Pin) < 0 {
				bad("net %q: macro %q of cell %q has no pin %q", nc.Net, m.Name, pr.Cell, pr.Pin)
			}
		}
		if len(nc.Pins)+len(net.IOs) < 2 {
			bad("net %q would keep only %d terminals", nc.Net, len(nc.Pins)+len(net.IOs))
		}
	}

	// A removed cell's nets must all be rewired away from it, or the rebuild
	// would leave dangling pin references.
	for name := range removed {
		c, ok := d.CellByName(name)
		if !ok {
			continue
		}
		for _, nid := range c.Nets {
			if !rewired[d.Nets[nid].Name] {
				bad("net %q still references removed cell %q: rewire it in the same delta", d.Nets[nid].Name, name)
			}
		}
	}

	if len(reasons) == 0 {
		return nil
	}
	sort.Strings(reasons)
	return &ValidationError{Reasons: reasons}
}

func pinIndex(m *db.Macro, name string) int32 {
	for i := range m.Pins {
		if m.Pins[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// Resolve maps a validated non-structural delta onto design IDs, producing
// the transactional form view.Txn.ApplyDelta consumes.
func (dl *Delta) Resolve(d *db.Design) (view.DeltaOps, error) {
	if dl.Structural() {
		return view.DeltaOps{}, fmt.Errorf("eco: structural delta cannot be resolved transactionally; use ApplyStructural")
	}
	ops := view.DeltaOps{Moves: make(map[int32]geom.Point, len(dl.Moves))}
	for _, mv := range dl.Moves {
		c, ok := d.CellByName(mv.Cell)
		if !ok {
			return view.DeltaOps{}, fmt.Errorf("eco: moved cell %q does not exist", mv.Cell)
		}
		ops.Moves[c.ID] = geom.Pt(mv.X, mv.Y)
	}
	for _, nc := range dl.Nets {
		n, ok := d.NetByName(nc.Net)
		if !ok {
			return view.DeltaOps{}, fmt.Errorf("eco: rewired net %q does not exist", nc.Net)
		}
		pins := make([]db.PinRef, 0, len(nc.Pins))
		for _, pr := range nc.Pins {
			c, ok := d.CellByName(pr.Cell)
			if !ok {
				return view.DeltaOps{}, fmt.Errorf("eco: net %q terminal cell %q does not exist", nc.Net, pr.Cell)
			}
			pi := pinIndex(c.Macro, pr.Pin)
			if pi < 0 {
				return view.DeltaOps{}, fmt.Errorf("eco: net %q: macro %q has no pin %q", nc.Net, c.Macro.Name, pr.Pin)
			}
			pins = append(pins, db.PinRef{Cell: c.ID, Pin: pi})
		}
		ops.Nets = append(ops.Nets, view.NetChange{Net: n.ID, Pins: pins})
	}
	return ops, nil
}

// ApplyToDesign applies a validated non-structural delta directly to an
// unrouted design — the path scratch-reference runs and benches use to build
// "the edited design" before a from-scratch flow. Live ECO re-runs go
// through view.Txn.ApplyDelta instead.
func ApplyToDesign(d *db.Design, dl *Delta) error {
	if dl.Structural() {
		return fmt.Errorf("eco: structural delta: use ApplyStructural")
	}
	if err := dl.Validate(d); err != nil {
		return err
	}
	ops, err := dl.Resolve(d)
	if err != nil {
		return err
	}
	if len(ops.Moves) > 0 {
		if err := d.MoveCells(ops.Moves); err != nil {
			return err
		}
	}
	sort.Slice(ops.Nets, func(a, b int) bool { return ops.Nets[a].Net < ops.Nets[b].Net })
	for _, nc := range ops.Nets {
		if _, err := d.ReconnectNet(nc.Net, nc.Pins); err != nil {
			return err
		}
	}
	return nil
}

// ApplyStructural rebuilds the design with the full delta applied — removed
// cells dropped, added cells appended (re-IDing everything after them), and
// moves/rewirings folded in. The result is a fresh, validated design with
// clean history sets; the flow runs it from scratch (the full-run fallback
// rung of the convergence ladder).
func ApplyStructural(base *db.Design, dl *Delta) (*db.Design, error) {
	if err := dl.Validate(base); err != nil {
		return nil, err
	}
	removed := map[string]bool{}
	for _, name := range dl.Removes {
		removed[name] = true
	}
	moveTo := map[string]geom.Point{}
	for _, mv := range dl.Moves {
		moveTo[mv.Cell] = geom.Pt(mv.X, mv.Y)
	}

	var cells []*db.Cell
	newID := map[string]int32{}
	for _, c := range base.Cells {
		if removed[c.Name] {
			continue
		}
		nc := &db.Cell{
			ID:     int32(len(cells)),
			Name:   c.Name,
			Macro:  c.Macro,
			Pos:    c.Pos,
			Orient: c.Orient,
			Fixed:  c.Fixed,
		}
		if pos, ok := moveTo[c.Name]; ok {
			nc.Pos = pos
			if row, ok := base.RowAt(pos.Y); ok {
				nc.Orient = row.Orient
			}
		}
		newID[nc.Name] = nc.ID
		cells = append(cells, nc)
	}
	for _, a := range dl.Adds {
		m, _ := base.MacroByName(a.Macro)
		nc := &db.Cell{
			ID:    int32(len(cells)),
			Name:  a.Name,
			Macro: m,
			Pos:   geom.Pt(a.X, a.Y),
		}
		if row, ok := base.RowAt(a.Y); ok {
			nc.Orient = row.Orient
		}
		newID[nc.Name] = nc.ID
		cells = append(cells, nc)
	}

	rewire := map[string][]PinRef{}
	for _, nc := range dl.Nets {
		rewire[nc.Net] = nc.Pins
	}
	var nets []*db.Net
	for _, n := range base.Nets {
		nn := &db.Net{
			ID:   int32(len(nets)),
			Name: n.Name,
			IOs:  append([]db.IOPin(nil), n.IOs...),
		}
		src := n.Pins
		if pins, ok := rewire[n.Name]; ok {
			src = nil
			for _, pr := range pins {
				id, ok := newID[pr.Cell]
				if !ok {
					return nil, fmt.Errorf("eco: net %q terminal cell %q missing after rebuild", n.Name, pr.Cell)
				}
				src = append(src, db.PinRef{Cell: id, Pin: pinIndex(cells[id].Macro, pr.Pin)})
			}
		} else {
			remapped := make([]db.PinRef, 0, len(src))
			for _, pr := range src {
				name := base.Cells[pr.Cell].Name
				id, ok := newID[name]
				if !ok {
					// Unreachable after Validate: a net touching a removed
					// cell must have been rewired.
					return nil, fmt.Errorf("eco: net %q references removed cell %q", n.Name, name)
				}
				remapped = append(remapped, db.PinRef{Cell: id, Pin: pr.Pin})
			}
			src = remapped
		}
		nn.Pins = src
		nets = append(nets, nn)
	}

	rows := append([]db.Row(nil), base.Rows...)
	obs := append([]db.Obstacle(nil), base.Obs...)
	d2, err := db.New(base.Name, base.Tech, base.Die, rows, base.Macros, cells, nets, obs)
	if err != nil {
		return nil, fmt.Errorf("eco: rebuilt design invalid: %w", err)
	}
	return d2, nil
}
