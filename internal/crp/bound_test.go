package crp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

// TestStayPutBoundKeepsEveryImprovingMove referees the stay-put bound inside
// CR&P, in both cost modes: for every critical cell, the candidates
// pruneDominated keeps, with their costs, are the ones it keeps when every
// legal candidate is generated by the unbounded legalizer and priced in
// full. The length-only mode bounds a net by its other terminals'
// half-perimeter; no flow-level referee runs that mode.
func TestStayPutBoundKeepsEveryImprovingMove(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []CostMode{CongestionAware, LengthOnly} {
		d, g, r := fixture(t, 300, 250, 7)
		cfg := smallConfig(1)
		cfg.CostMode = mode
		e := New(d, g, r, cfg)
		critical := e.labelCriticalCells()

		e.L.BeginPass()
		b0 := e.L.Stats().Bounded
		bounded, _ := e.generateCandidates(ctx, critical)
		e.estimateCosts(ctx, bounded)
		proven := e.L.Stats().Bounded - b0

		full := make([][]candidate, len(critical))
		for i, cid := range critical {
			full[i] = []candidate{{cell: cid, pos: d.Cells[cid].Pos, conflicts: map[int32]geom.Point{}, isCurrent: true}}
			for _, lc := range e.L.Run(cid) {
				full[i] = append(full[i], candidate{cell: cid, pos: lc.Pos, conflicts: lc.Conflicts})
			}
			for j := range full[i] {
				full[i][j].cost = e.estimateCandidate(&full[i][j], e.ovs[0], math.Inf(1))
			}
		}

		// kept lists each cell's surviving candidates, stay-put first.
		kept := func(cands [][]candidate) [][]candidate {
			_, active := pruneDominated(cands)
			out := make([][]candidate, len(cands))
			for _, cc := range active {
				for _, j := range cc.list {
					c := cands[cc.ci][j]
					c.priced = false
					out[cc.ci] = append(out[cc.ci], c)
				}
			}
			return out
		}
		got, want := kept(bounded), kept(full)
		moving := 0
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("mode %d cell %d: bounded run keeps\n%+v\nfull run keeps\n%+v", mode, critical[i], got[i], want[i])
			}
			if len(want[i]) > 0 {
				moving++
			}
		}
		t.Logf("mode %d: %d critical cells, %d keep a move, %d slots proven", mode, len(critical), moving, proven)
		if moving == 0 || proven == 0 {
			t.Fatalf("mode %d: vacuous referee: %d cells keep a move, %d slots proven", mode, moving, proven)
		}
	}
}
