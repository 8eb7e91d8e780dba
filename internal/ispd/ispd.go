// Package ispd generates the synthetic benchmark suite standing in for the
// ISPD-2018 contest circuits (Table II of the paper). The contest LEF/DEF
// files are not redistributable, so this package reproduces the structural
// properties CR&P's behaviour depends on instead of the exact designs:
//
//   - near-full rows ("there is almost no empty space between cells"), so
//     naive cell moves are illegal and the ILP legalizer matters;
//   - spatially clustered netlists, so median positions are meaningful and
//     most nets are local;
//   - congestion hot spots (dense pin/net regions) plus routing blockages,
//     so the congestion penalty of Eq. 10 has somewhere to bite;
//   - two technology classes (45nm-like and 32nm-like) with different layer
//     counts, mirroring the contest's split.
//
// Every circuit is produced deterministically from its Spec's seed.
package ispd

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/place"
	"github.com/crp-eda/crp/internal/tech"
)

// Spec describes one synthetic circuit.
type Spec struct {
	Name        string
	Node        string  // "n45" or "n32"
	Cells       int     // target movable cell count
	Nets        int     // target net count
	Utilisation float64 // row fill fraction (0.85-0.95 for ISPD-2018-like)
	Hotspots    int     // dense-netlist regions
	Obstacles   int     // fixed routing blockages
	IOFraction  float64 // fraction of nets with a die-boundary IO pin
	Seed        int64
	// RefinePasses runs a greedy median-move detailed placement over the
	// generated design (-1 disables, 0 means the default of 2). The
	// contest circuits arrive pre-placed by state-of-the-art placers, so
	// an unrefined random-ish placement would hand CR&P and the baselines
	// wins they never see in practice; refinement converges the easy
	// wirelength gains away, leaving the congestion-driven residue the
	// paper's numbers are made of.
	RefinePasses int
}

// Suite returns the ten Table II circuits with cell/net counts scaled by
// `scale` (1.0 would be full contest size; experiments use a laptop-scale
// fraction). Counts below 50 are clamped so tiny scales stay routable.
func Suite(scale float64) []Spec {
	type row struct {
		name  string
		nets  int
		cells int
		node  string
	}
	// Table II, in thousands.
	rows := []row{
		{"crp_test1", 3_000, 8_000, "n45"},
		{"crp_test2", 36_000, 35_000, "n45"},
		{"crp_test3", 36_000, 35_000, "n45"},
		{"crp_test4", 72_000, 72_000, "n32"},
		{"crp_test5", 72_000, 71_000, "n32"},
		{"crp_test6", 107_000, 107_000, "n32"},
		{"crp_test7", 179_000, 179_000, "n32"},
		{"crp_test8", 179_000, 192_000, "n32"},
		{"crp_test9", 178_000, 192_000, "n32"},
		{"crp_test10", 182_000, 290_000, "n32"},
	}
	specs := make([]Spec, 0, len(rows))
	for i, r := range rows {
		cells := int(float64(r.cells) * scale)
		nets := int(float64(r.nets) * scale)
		if cells < 50 {
			cells = 50
		}
		if nets < 30 {
			nets = 30
		}
		// Later circuits are denser and more congested, mirroring the
		// paper's observation that CR&P wins most on congested designs
		// while [18] wins on the loose early ones.
		util := 0.82 + 0.012*float64(i)
		specs = append(specs, Spec{
			Name:        r.name,
			Node:        r.node,
			Cells:       cells,
			Nets:        nets,
			Utilisation: util,
			Hotspots:    1 + i/2,
			Obstacles:   i / 3,
			IOFraction:  0.03,
			Seed:        int64(1000 + i),
		})
	}
	return specs
}

// widthDist is the standard-cell width mix in sites.
var widthDist = []struct {
	sites  int
	weight float64
}{
	{2, 0.50},
	{3, 0.30},
	{4, 0.15},
	{6, 0.05},
}

func pickWidth(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for _, w := range widthDist {
		acc += w.weight
		if r < acc {
			return w.sites
		}
	}
	return widthDist[len(widthDist)-1].sites
}

// Generate builds the circuit described by spec.
func Generate(spec Spec) (*db.Design, error) {
	if spec.Cells <= 0 || spec.Nets <= 0 {
		return nil, fmt.Errorf("ispd: spec %q needs positive cell/net counts", spec.Name)
	}
	if spec.Utilisation <= 0 || spec.Utilisation >= 1 {
		return nil, fmt.Errorf("ispd: spec %q utilisation %v out of (0,1)", spec.Name, spec.Utilisation)
	}
	t, macros, err := Library(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sw, rh := t.Site.Width, t.Site.Height

	// Size the die for the target utilisation with a roughly square shape.
	avgSites := 0.0
	for _, w := range widthDist {
		avgSites += float64(w.sites) * w.weight
	}
	cellArea := float64(spec.Cells) * avgSites * float64(sw) * float64(rh)
	rowArea := cellArea / spec.Utilisation
	side := math.Sqrt(rowArea)
	nRows := max(int(side/float64(rh)+0.5), 4)
	nSites := max(int(side/float64(sw)+0.5), 40)
	die := geom.R(0, 0, nSites*sw, nRows*rh)

	rows := make([]db.Row, nRows)
	for i := range rows {
		o := db.N
		if i%2 == 1 {
			o = db.FS
		}
		rows[i] = db.Row{Index: int32(i), X: 0, Y: i * rh, NumSites: nSites, Orient: o}
	}

	obs := placeObstacles(spec, rng, die, nRows, nSites, t)
	cells := placeCells(spec, rng, macros, obs, nRows, nSites, t)
	if len(cells) == 0 {
		return nil, fmt.Errorf("ispd: spec %q produced no cells (die too small?)", spec.Name)
	}
	nets := buildNets(spec, rng, cells, die)

	d, err := db.New(spec.Name, t, die, rows, macros, cells, nets, obs)
	if err != nil {
		return nil, err
	}
	passes := spec.RefinePasses
	if passes == 0 {
		passes = 2
	}
	if passes > 0 {
		place.Refine(d, place.Config{Passes: passes, Seed: spec.Seed})
	}
	return d, nil
}

// Library returns the technology and cell library of the circuit spec
// describes: a function of spec.Node alone, and the library Generate builds
// the circuit from. Reading a written DEF of the circuit back needs only it.
func Library(spec Spec) (*tech.Tech, []*db.Macro, error) {
	t, err := tech.ByName(spec.Node)
	if err != nil {
		return nil, nil, fmt.Errorf("ispd: spec %q: %w", spec.Name, err)
	}
	return t, buildMacros(t), nil
}

// buildMacros creates the small standard-cell library: one macro per width
// class, each with input pins on the left portion and an output pin on the
// right, all on metal1.
func buildMacros(t *tech.Tech) []*db.Macro {
	sw, rh := t.Site.Width, t.Site.Height
	var out []*db.Macro
	for _, w := range widthDist {
		ws := w.sites
		m := &db.Macro{
			Name:   fmt.Sprintf("CELL_X%d", ws),
			Width:  ws * sw,
			Height: rh,
			Pins: []db.PinDef{
				{Name: "A", Offset: geom.Pt(sw/2, rh/4), Layer: 0},
				{Name: "B", Offset: geom.Pt(sw/2, rh/2), Layer: 0},
				{Name: "Z", Offset: geom.Pt(ws*sw-sw/2, 3*rh/4), Layer: 0},
			},
		}
		if ws >= 4 {
			m.Pins = append(m.Pins, db.PinDef{Name: "C", Offset: geom.Pt(3*sw/2, rh/2), Layer: 0})
		}
		out = append(out, m)
	}
	return out
}

// placeObstacles drops a few fixed blocks (placement + lower-layer routing
// blockages), each a few GCells wide, away from the die edge.
func placeObstacles(spec Spec, rng *rand.Rand, die geom.Rect, nRows, nSites int, t *tech.Tech) []db.Obstacle {
	sw, rh := t.Site.Width, t.Site.Height
	var out []db.Obstacle
	for i := 0; i < spec.Obstacles; i++ {
		wSites := 8 + rng.Intn(12)
		hRows := 2 + rng.Intn(3)
		if nSites <= wSites+4 || nRows <= hRows+2 {
			break
		}
		x := (2 + rng.Intn(nSites-wSites-4)) * sw
		y := (1 + rng.Intn(nRows-hRows-2)) * rh
		out = append(out, db.Obstacle{
			Name:   fmt.Sprintf("blk%d", i),
			Rect:   geom.R(x, y, x+wSites*sw, y+hRows*rh),
			Layers: []int{1, 2},
		})
	}
	return out
}

// placeCells packs rows left to right, inserting random gaps sized to hit
// the target utilisation, and skipping obstacle spans.
func placeCells(spec Spec, rng *rand.Rand, macros []*db.Macro, obs []db.Obstacle, nRows, nSites int, t *tech.Tech) []*db.Cell {
	sw, rh := t.Site.Width, t.Site.Height
	macroBySites := map[int]*db.Macro{}
	for _, m := range macros {
		macroBySites[m.Width/sw] = m
	}
	gapProb := 1 - spec.Utilisation

	var cells []*db.Cell
	id := int32(0)
	for r := 0; r < nRows && len(cells) < spec.Cells; r++ {
		o := db.N
		if r%2 == 1 {
			o = db.FS
		}
		x := 0
		for x < nSites && len(cells) < spec.Cells {
			// Skip obstacle spans in this row.
			if blocked, next := obstacleAt(obs, x*sw, r*rh, rh); blocked {
				x = (next + sw - 1) / sw
				continue
			}
			if rng.Float64() < gapProb*2.6 { // calibrated: ~util fill after gaps
				x++
				continue
			}
			ws := pickWidth(rng)
			if x+ws > nSites {
				break
			}
			// The whole footprint must clear obstacles.
			if blocked, next := obstacleAt(obs, (x+ws)*sw-1, r*rh, rh); blocked {
				x = (next + sw - 1) / sw
				continue
			}
			cells = append(cells, &db.Cell{
				ID:     id,
				Name:   fmt.Sprintf("inst%d", id),
				Macro:  macroBySites[ws],
				Pos:    geom.Pt(x*sw, r*rh),
				Orient: o,
			})
			id++
			x += ws
		}
	}
	return cells
}

// obstacleAt reports whether DBU point (x, y..y+rh) hits an obstacle, and
// if so the DBU X where the obstacle ends.
func obstacleAt(obs []db.Obstacle, x, y, rh int) (bool, int) {
	probe := geom.R(x, y, x+1, y+rh)
	for _, o := range obs {
		if o.Rect.Overlaps(probe) {
			return true, o.Rect.Hi.X
		}
	}
	return false, 0
}

// buildNets creates the clustered netlist. A net picks a seed cell (biased
// into hotspot regions), then grows with neighbours sampled from a
// distance-decaying distribution; a small fraction of nets are global.
func buildNets(spec Spec, rng *rand.Rand, cells []*db.Cell, die geom.Rect) []*db.Net {
	// Spatial index: bucket cells into a coarse grid for neighbour lookup.
	const buckets = 24
	bw := max(die.W()/buckets, 1)
	bh := max(die.H()/buckets, 1)
	bucketOf := func(p geom.Point) [2]int {
		return [2]int{min(p.X/bw, buckets-1), min(p.Y/bh, buckets-1)}
	}
	index := map[[2]int][]int32{}
	for _, c := range cells {
		b := bucketOf(c.Pos)
		index[b] = append(index[b], c.ID)
	}

	// Hotspot rectangles.
	var hotspots []geom.Rect
	for h := 0; h < spec.Hotspots; h++ {
		cx := die.Lo.X + rng.Intn(max(die.W(), 1))
		cy := die.Lo.Y + rng.Intn(max(die.H(), 1))
		r := geom.R(cx-2*bw, cy-2*bh, cx+2*bw, cy+2*bh).Intersect(die)
		if !r.Empty() {
			hotspots = append(hotspots, r)
		}
	}
	pickSeed := func() *db.Cell {
		// 35% of nets seed inside a hotspot (when one exists).
		if len(hotspots) > 0 && rng.Float64() < 0.35 {
			hs := hotspots[rng.Intn(len(hotspots))]
			for try := 0; try < 20; try++ {
				c := cells[rng.Intn(len(cells))]
				if hs.Contains(c.Pos) {
					return c
				}
			}
		}
		return cells[rng.Intn(len(cells))]
	}
	neighbourOf := func(seed *db.Cell, radius int) *db.Cell {
		sb := bucketOf(seed.Pos)
		for try := 0; try < 30; try++ {
			dx := rng.Intn(2*radius+1) - radius
			dy := rng.Intn(2*radius+1) - radius
			b := [2]int{sb[0] + dx, sb[1] + dy}
			ids := index[b]
			if len(ids) == 0 {
				continue
			}
			c := cells[ids[rng.Intn(len(ids))]]
			if c.ID != seed.ID {
				return c
			}
		}
		return nil
	}

	degree := func() int {
		r := rng.Float64()
		switch {
		case r < 0.55:
			return 2
		case r < 0.80:
			return 3
		case r < 0.92:
			return 4
		default:
			return 5 + rng.Intn(4)
		}
	}

	var nets []*db.Net
	for len(nets) < spec.Nets {
		seed := pickSeed()
		deg := degree()
		radius := 1
		if rng.Float64() < 0.05 {
			radius = buckets // global net
		}
		members := []*db.Cell{seed}
		seen := map[int32]bool{seed.ID: true}
		// Bounded attempts: a seed may have fewer distinct neighbours than
		// the target degree, in which case the net is built smaller.
		for tries := 0; len(members) < deg && tries < 60; tries++ {
			nb := neighbourOf(seed, radius)
			if nb == nil {
				break
			}
			if !seen[nb.ID] {
				seen[nb.ID] = true
				members = append(members, nb)
			}
		}
		if len(members) < 2 {
			// Isolated seed: fall back to a uniform random partner so net
			// construction always terminates.
			for tries := 0; tries < 60; tries++ {
				c := cells[rng.Intn(len(cells))]
				if c.ID != seed.ID {
					members = append(members, c)
					break
				}
			}
			if len(members) < 2 {
				continue
			}
		}
		n := &db.Net{ID: int32(len(nets)), Name: fmt.Sprintf("net%d", len(nets))}
		// Seed drives from its output pin; sinks listen on inputs.
		n.Pins = append(n.Pins, db.PinRef{Cell: members[0].ID, Pin: outputPin(members[0])})
		for _, m := range members[1:] {
			n.Pins = append(n.Pins, db.PinRef{Cell: m.ID, Pin: int32(rng.Intn(2))})
		}
		if rng.Float64() < spec.IOFraction {
			n.IOs = append(n.IOs, db.IOPin{
				Name:  fmt.Sprintf("io%d", len(nets)),
				Pos:   boundaryPoint(rng, die),
				Layer: 1,
			})
		}
		nets = append(nets, n)
	}
	return nets
}

func outputPin(c *db.Cell) int32 {
	for i, p := range c.Macro.Pins {
		if p.Name == "Z" {
			return int32(i)
		}
	}
	return 0
}

func boundaryPoint(rng *rand.Rand, die geom.Rect) geom.Point {
	switch rng.Intn(4) {
	case 0:
		return geom.Pt(die.Lo.X, die.Lo.Y+rng.Intn(max(die.H(), 1)))
	case 1:
		return geom.Pt(die.Hi.X-1, die.Lo.Y+rng.Intn(max(die.H(), 1)))
	case 2:
		return geom.Pt(die.Lo.X+rng.Intn(max(die.W(), 1)), die.Lo.Y)
	default:
		return geom.Pt(die.Lo.X+rng.Intn(max(die.W(), 1)), die.Hi.Y-1)
	}
}
