// Package shard partitions one CR&P iteration's critical set into regions
// whose selection sub-problems provably do not interact, so the
// label→generate→estimate→select pipeline can run per region concurrently
// and the results can be merged speculatively (see internal/crp's sharded
// iteration and DESIGN.md, "Sharding architecture").
//
// The partition is grid-based: a coarse grid is laid over the die, every
// critical cell's interaction rectangle (its legalizer window inflated by a
// halo) is rasterised onto the coarse cells it covers, and coarse cells
// sharing a rectangle are merged union-find style. Two overlapping
// rectangles always share a coarse cell, so cells whose rectangles overlap
// — directly or through a chain — always land in the same region,
// regardless of the grid resolution. The resolution only controls how
// eagerly nearby-but-disjoint rectangles are merged: finer grids give more
// regions, coarser grids fewer, never an unsound split.
//
// Routing-demand interactions between regions are deliberately NOT part of
// the partition: net bounding boxes routinely span the die, and folding
// them in would collapse everything into one region. They are instead
// checked optimistically at merge time, against the per-region demand
// journal and the rerouted nets' bounding-box footprints (again inflated by
// the halo) — the speculative half of the design.
package shard

import (
	"sort"

	"github.com/crp-eda/crp/internal/geom"
)

// Input describes one partition request.
type Input struct {
	// Die is the placement area the coarse grid covers.
	Die geom.Rect
	// Targets is the requested region count; the coarse grid is the
	// smallest square grid with at least Targets cells. Values < 1 are
	// treated as 1.
	Targets int
	// Halo inflates every interaction rectangle (DBU) before rasterising,
	// so near-touching windows — whose candidates interact through routing
	// demand on shared GCell edges — merge instead of racing.
	Halo int
	// Rects holds one interaction rectangle per critical cell, in labeling
	// order: the legalizer window (every candidate slot and conflict
	// relocation lies inside it).
	Rects []geom.Rect
}

// Region is one independent group of critical cells.
type Region struct {
	// Members are critical-cell indices into Input.Rects, ascending.
	Members []int
	// Bounds is the union of the members' halo-inflated rectangles.
	Bounds geom.Rect
}

// Partition groups the critical cells into regions whose halo-inflated
// interaction rectangles are pairwise disjoint across regions. Regions are
// ordered by their smallest member index, so the output is deterministic
// for a given input. An empty input yields no regions.
func Partition(in Input) []Region {
	n := len(in.Rects)
	if n == 0 {
		return nil
	}
	dim := 1
	for dim*dim < max(in.Targets, 1) {
		dim++
	}
	w, h := in.Die.W(), in.Die.H()
	if w <= 0 || h <= 0 || dim == 1 {
		// Degenerate die or a single target: everything is one region.
		all := make([]int, n)
		b := geom.Rect{}
		for i := range all {
			all[i] = i
			b = b.Union(in.Rects[i].Expand(in.Halo))
		}
		return []Region{{Members: all, Bounds: b}}
	}

	// Union-find over coarse cells plus one node per critical cell.
	cellW := (w + dim - 1) / dim
	cellH := (h + dim - 1) / dim
	nodes := dim*dim + n
	parent := make([]int, nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	clampIdx := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	inflated := make([]geom.Rect, n)
	for i, r := range in.Rects {
		r = r.Expand(in.Halo)
		inflated[i] = r
		// Coarse-cell range the rectangle covers, clamped to the grid so
		// rectangles poking past the die still rasterise.
		cx0 := clampIdx((r.Lo.X-in.Die.Lo.X)/cellW, 0, dim-1)
		cx1 := clampIdx((r.Hi.X-1-in.Die.Lo.X)/cellW, 0, dim-1)
		cy0 := clampIdx((r.Lo.Y-in.Die.Lo.Y)/cellH, 0, dim-1)
		cy1 := clampIdx((r.Hi.Y-1-in.Die.Lo.Y)/cellH, 0, dim-1)
		self := dim*dim + i
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				union(self, cy*dim+cx)
			}
		}
	}

	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(dim*dim + i)
		byRoot[r] = append(byRoot[r], i)
	}
	regions := make([]Region, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Ints(members)
		b := geom.Rect{}
		for _, m := range members {
			b = b.Union(inflated[m])
		}
		regions = append(regions, Region{Members: members, Bounds: b})
	}
	sort.Slice(regions, func(a, b int) bool {
		return regions[a].Members[0] < regions[b].Members[0]
	})
	return regions
}
