package grid

import (
	"fmt"
	"io"
	"math"
)

// CongestionMap is a 2D projection of the 3D edge congestion: for every
// GCell, the maximum demand/capacity ratio over the planar edges incident
// to it on any layer. CR&P's labeling concentrates on the cells living in
// the hot entries of this map, and the CLI renders it as a heatmap.
type CongestionMap struct {
	NX, NY int
	// Ratio[y*NX+x] is the worst incident edge congestion of GCell (x,y).
	Ratio []float64
}

// At returns the map value at (x, y).
func (m *CongestionMap) At(x, y int) float64 { return m.Ratio[y*m.NX+x] }

// Max returns the hottest value in the map.
func (m *CongestionMap) Max() float64 {
	worst := 0.0
	for _, r := range m.Ratio {
		worst = math.Max(worst, r)
	}
	return worst
}

// Overflowed counts GCells whose worst incident edge exceeds capacity.
func (m *CongestionMap) Overflowed() int {
	n := 0
	for _, r := range m.Ratio {
		if r > 1 {
			n++
		}
	}
	return n
}

// Congestion builds the map from the current demand state.
func (g *Grid) Congestion() *CongestionMap {
	m := &CongestionMap{NX: g.NX, NY: g.NY, Ratio: make([]float64, g.NX*g.NY)}
	bump := func(x, y int, v float64) {
		if i := y*g.NX + x; v > m.Ratio[i] {
			m.Ratio[i] = v
		}
	}
	for l := 1; l < g.NL; l++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if !g.HasEdge(x, y, l) {
					continue
				}
				r := g.EdgeCongestion(x, y, l)
				bump(x, y, r)
				if g.horiz[l] {
					bump(x+1, y, r)
				} else {
					bump(x, y+1, r)
				}
			}
		}
	}
	return m
}

// heatRunes maps congestion bands to display characters: ' ' empty, then
// '.', ':', '+', '#' for rising utilisation, and 'X' for overflow.
var heatRunes = []struct {
	limit float64
	r     byte
}{
	{0.05, ' '},
	{0.30, '.'},
	{0.60, ':'},
	{0.85, '+'},
	{1.00, '#'},
	{math.Inf(1), 'X'},
}

// WriteHeatmap renders the map as ASCII art, top row first (Y grows up in
// DBU space, so the last lattice row prints first). A legend line follows.
func (m *CongestionMap) WriteHeatmap(w io.Writer) error {
	for y := m.NY - 1; y >= 0; y-- {
		line := make([]byte, m.NX)
		for x := 0; x < m.NX; x++ {
			r := m.At(x, y)
			for _, band := range heatRunes {
				if r <= band.limit {
					line[x] = band.r
					break
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "legend: ' '<5%% '.'<30%% ':'<60%% '+'<85%% '#'<=100%% 'X'>100%% | max %.2f, overflowed %d/%d\n",
		m.Max(), m.Overflowed(), len(m.Ratio))
	return err
}
