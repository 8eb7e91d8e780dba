package db

import (
	"github.com/crp-eda/crp/internal/geom"
)

// PinPosition returns the absolute position of pin `pin` of cell c at the
// cell's current location, honouring the row orientation (FS mirrors pin
// offsets vertically inside the cell).
func (d *Design) PinPosition(c *Cell, pin int32) geom.Point {
	return d.PinPositionAt(c, pin, c.Pos, c.Orient)
}

// PinPositionAt returns where pin `pin` of cell c would land if the cell
// were placed at pos with orientation o. CR&P's candidate cost estimation
// (Algorithm 3) uses this to evaluate hypothetical placements without
// mutating the database.
func (d *Design) PinPositionAt(c *Cell, pin int32, pos geom.Point, o Orient) geom.Point {
	pd := c.Macro.Pins[pin]
	off := pd.Offset
	if o == FS {
		off.Y = c.Macro.Height - off.Y
		if off.Y == c.Macro.Height {
			off.Y-- // keep the pin inside the half-open cell footprint
		}
	}
	return pos.Add(off)
}

// NetPinPositions returns the absolute positions of every terminal of net n
// at the current placement. The slice is freshly allocated.
func (d *Design) NetPinPositions(n *Net) []geom.Point {
	pts := make([]geom.Point, 0, n.Degree())
	for _, pr := range n.Pins {
		c := d.Cells[pr.Cell]
		pts = append(pts, d.PinPosition(c, pr.Pin))
	}
	for _, io := range n.IOs {
		pts = append(pts, io.Pos)
	}
	return pts
}

// HPWL returns the half-perimeter wirelength of net n in DBU.
func (d *Design) HPWL(n *Net) int64 {
	pts := d.NetPinPositions(n)
	if len(pts) < 2 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX = min(minX, p.X)
		maxX = max(maxX, p.X)
		minY = min(minY, p.Y)
		maxY = max(maxY, p.Y)
	}
	return int64(maxX-minX) + int64(maxY-minY)
}

// TotalHPWL sums HPWL over all nets.
func (d *Design) TotalHPWL() int64 {
	var total int64
	for _, n := range d.Nets {
		total += d.HPWL(n)
	}
	return total
}

// ConnectedCells returns the IDs of all cells sharing a net with cell id,
// excluding id itself. Each neighbour appears once. Algorithm 1 keeps
// connected cells out of the same critical set; its test walks the same
// pins without allocating, and the tests check its set against this.
func (d *Design) ConnectedCells(id int32) []int32 {
	c := d.Cells[id]
	seen := map[int32]bool{id: true}
	var out []int32
	for _, nid := range c.Nets {
		for _, pr := range d.Nets[nid].Pins {
			if !seen[pr.Cell] {
				seen[pr.Cell] = true
				out = append(out, pr.Cell)
			}
		}
	}
	return out
}

// NetMedianOf returns the median position of the terminals of the cell's
// nets, excluding the cell's own pins — the classic optimal-region target
// the legalizer cost (Eq. 11) pulls candidates toward, and the move target
// of the median-ILP baseline [18].
func (d *Design) NetMedianOf(id int32) geom.Point {
	c := d.Cells[id]
	var pts []geom.Point
	for _, nid := range c.Nets {
		n := d.Nets[nid]
		for _, pr := range n.Pins {
			if pr.Cell != id {
				pts = append(pts, d.PinPosition(d.Cells[pr.Cell], pr.Pin))
			}
		}
		for _, io := range n.IOs {
			pts = append(pts, io.Pos)
		}
	}
	if len(pts) == 0 {
		return c.Pos
	}
	return geom.MedianPoint(pts)
}

// MedianScratch holds reusable buffers for NetMedianOfScratch.
type MedianScratch struct {
	xs, ys []int
}

// NetMedianOfScratch is NetMedianOf with caller-provided buffers — the
// legalizer computes medians for every cell in every window it opens, and
// the four per-call allocations of the plain version dominated that path.
// Results are identical: the same terminal coordinates feed the same
// lower-median selection.
func (d *Design) NetMedianOfScratch(id int32, s *MedianScratch) geom.Point {
	c := d.Cells[id]
	xs, ys := s.xs[:0], s.ys[:0]
	for _, nid := range c.Nets {
		n := d.Nets[nid]
		for _, pr := range n.Pins {
			if pr.Cell != id {
				p := d.PinPosition(d.Cells[pr.Cell], pr.Pin)
				xs = append(xs, p.X)
				ys = append(ys, p.Y)
			}
		}
		for _, io := range n.IOs {
			xs = append(xs, io.Pos.X)
			ys = append(ys, io.Pos.Y)
		}
	}
	s.xs, s.ys = xs, ys
	if len(xs) == 0 {
		return c.Pos
	}
	return geom.Pt(geom.MedianInPlace(xs), geom.MedianInPlace(ys))
}
