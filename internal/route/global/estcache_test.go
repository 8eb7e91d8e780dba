package global

import (
	"math/rand"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
)

// TestEstimateCacheMatchesFresh is the bit-identity property test of the
// estimation fast path: a cache-enabled router and a cache-disabled router
// sharing the same grid must return exactly equal (==, not approximately
// equal) estimates, across arbitrary interleavings of Commit/RipUp that
// advance the demand epoch between queries. Every query runs twice on the
// cached router so both the miss path (populate) and the hit path (lookup)
// are compared against the fresh computation.
func TestEstimateCacheMatchesFresh(t *testing.T) {
	d := routeDesign(t, 220, 160, 11)
	g := grid.New(d, grid.DefaultParams())
	cached := New(d, g, DefaultConfig())
	cfgOff := DefaultConfig()
	cfgOff.DisableEstimateCache = true
	fresh := New(d, g, cfgOff) // estimation-only: never mutates the grid

	cached.RouteAll()
	rng := rand.New(rand.NewSource(99))

	checkNets := func(round int) {
		t.Helper()
		for _, n := range d.Nets {
			pts := d.NetPinPositions(n)
			want := fresh.EstimateTerminalCost(pts)
			for pass := 0; pass < 2; pass++ {
				got := cached.EstimateTerminalCost(pts)
				if got != want {
					t.Fatalf("round %d net %d pass %d: cached estimate %v != fresh %v",
						round, n.ID, pass, got, want)
				}
			}
		}
	}
	checkSegments := func(round int) {
		t.Helper()
		cs, fs := cached.getScratch(), fresh.getScratch()
		defer cached.putScratch(cs)
		defer fresh.putScratch(fs)
		for k := 0; k < 200; k++ {
			a := geom.Pt(rng.Intn(g.NX), rng.Intn(g.NY))
			b := geom.Pt(rng.Intn(g.NX), rng.Intn(g.NY))
			want := fresh.segmentEstimate(a, b, fs)
			for pass := 0; pass < 2; pass++ {
				got := cached.segmentEstimate(a, b, cs)
				if got != want {
					t.Fatalf("round %d segment %v-%v pass %d: cached %v != fresh %v",
						round, a, b, pass, got, want)
				}
			}
		}
	}

	checkNets(0)
	checkSegments(0)
	for round := 1; round <= 6; round++ {
		// Mutate demand: rip up a random batch, re-route half of it, leave
		// the rest unrouted so some nets change terminal-to-route identity.
		var victims []int32
		for k := 0; k < 12; k++ {
			victims = append(victims, int32(rng.Intn(len(d.Nets))))
		}
		for _, id := range victims {
			cached.RipUp(id)
		}
		for i, id := range victims {
			if i%2 == 0 && cached.Routes[id] == nil {
				rt, _ := cached.routeNet(id)
				cached.Commit(rt)
			}
		}
		checkNets(round)
		checkSegments(round)
	}
}

// TestSegKeyOrderSensitive pins down that (a,b) and (b,a) get distinct keys:
// Z-bend sampling truncates toward the first endpoint, so swapped endpoints
// may legitimately price differently and must not share a cache entry.
func TestSegKeyOrderSensitive(t *testing.T) {
	a, b := geom.Pt(3, 7), geom.Pt(10, 2)
	if segKey(a, b) == segKey(b, a) {
		t.Fatalf("segKey collapses (a,b) and (b,a): %#x", segKey(a, b))
	}
	if segKey(a, b) == segKey(a, geom.Pt(10, 3)) {
		t.Fatal("segKey collides on distinct endpoints")
	}
}

// TestEstimateTerminalCostAllocFree pins the ECC hot path's allocation
// contract: on a warm cache, EstimateTerminalCost allocates nothing — for
// one 3-pin query, and for a sweep over every net of the fixture.
func TestEstimateTerminalCostAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under the race detector")
	}
	d := routeDesign(t, 100, 80, 21)
	g := grid.New(d, grid.DefaultParams())
	r := New(d, g, DefaultConfig())
	r.RouteAll()
	pts := []geom.Point{g.Center(1, 1), g.Center(8, 3), g.Center(4, 7)}
	nets := make([][]geom.Point, 0, len(d.Nets))
	for _, n := range d.Nets {
		nets = append(nets, d.NetPinPositions(n))
	}
	allNets := func() {
		for _, p := range nets {
			r.EstimateTerminalCost(p)
		}
	}
	// Warm the caches: the first pass populates them.
	r.EstimateTerminalCost(pts)
	allNets()
	if a := testing.AllocsPerRun(100, func() { r.EstimateTerminalCost(pts) }); a != 0 {
		t.Errorf("3-pin query on a warm cache: %v allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, allNets); a != 0 {
		t.Errorf("all %d nets on a warm cache: %v allocs/run, want 0", len(nets), a)
	}
}
