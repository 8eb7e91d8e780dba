// Congestion relief: the scenario the paper's introduction motivates. A
// circuit with deliberate routing hot spots is globally routed; CR&P then
// iteratively labels the cells whose nets cross the congested edges, moves
// them through the ILP legalizer, and reroutes. The example prints the
// GCell-grid overflow statistics and the hottest-edge profile before and
// after, showing the congestion penalty of Eq. 10 steering cells out of
// the hot region.
//
//	go run ./examples/congestion
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

func main() {
	// A dense circuit with strong hot spots and blockages funnelling the
	// routing into narrow channels.
	d, err := ispd.Generate(ispd.Spec{
		Name:        "hotspot",
		Node:        "n45",
		Cells:       900,
		Nets:        1100,
		Utilisation: 0.90,
		Hotspots:    4,
		Obstacles:   2,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}

	g := grid.New(d, grid.DefaultParams())
	r := global.New(d, g, global.DefaultConfig())
	gst := r.RouteAll()
	fmt.Printf("initial global route: %d nets (%d pattern, %d maze), %d RRR passes\n",
		gst.RoutedNets, gst.PatternRoutes, gst.MazeRoutes, gst.RRRPasses)

	before := g.Overflow()
	fmt.Printf("before CR&P: %d overflowed edges, total overflow %.1f, worst %.1f, route cost %.0f\n",
		before.OverflowedEdges, before.TotalOverflow, before.MaxOverflow, r.TotalCost())
	printHottest(g, 5)

	cfg := crp.DefaultConfig()
	cfg.Iterations = 6
	engine := crp.New(d, g, r, cfg)
	var iters []crp.IterStats
	moved := 0
	for k := 0; k < cfg.Iterations; k++ {
		it := engine.Iterate(context.Background())
		iters = append(iters, it)
		moved += it.MovedCells
	}

	after := g.Overflow()
	fmt.Printf("\nafter %d CR&P iterations (%d cells moved): %d overflowed edges, total overflow %.1f, route cost %.0f\n",
		cfg.Iterations, moved, after.OverflowedEdges, after.TotalOverflow, r.TotalCost())
	printHottest(g, 5)

	fmt.Println("\nper-iteration effect:")
	for i, it := range iters {
		fmt.Printf("  k=%d: %d critical, %d candidates, %d moved, %d nets rerouted (est. cost %.1f -> %.1f)\n",
			i+1, it.Criticals, it.Candidates, it.MovedCells, it.ReroutedNets, it.EstBefore, it.EstAfter)
	}
	if err := d.Validate(); err != nil {
		log.Fatalf("placement became illegal: %v", err)
	}
	fmt.Println("\nplacement verified legal after all moves")
}

// printHottest lists the most congested planar edges.
func printHottest(g *grid.Grid, n int) {
	type hot struct {
		x, y, l int
		ratio   float64
	}
	var hots []hot
	for l := 1; l < g.NL; l++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if ratio := g.EdgeCongestion(x, y, l); ratio > 0 {
					hots = append(hots, hot{x, y, l, ratio})
				}
			}
		}
	}
	for i := 0; i < len(hots); i++ {
		for j := i + 1; j < len(hots); j++ {
			if hots[j].ratio > hots[i].ratio {
				hots[i], hots[j] = hots[j], hots[i]
			}
		}
		if i >= n-1 {
			break
		}
	}
	fmt.Printf("hottest edges:")
	for i := 0; i < min(n, len(hots)); i++ {
		h := hots[i]
		fmt.Printf("  (%d,%d,m%d)=%.2f", h.x, h.y, h.l+1, h.ratio)
	}
	fmt.Println()
}
