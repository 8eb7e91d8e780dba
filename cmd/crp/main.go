// Command crp runs the full CR&P flow of the paper's Fig. 1 on a LEF/DEF
// design: global routing (CUGR substitute), k iterations of the
// Co-operation between Routing and Placement, then detailed routing
// (TritonRoute substitute) with the ISPD-2018-style evaluation.
//
// Usage:
//
//	crp -lef design.lef -def design.def [-k 10] [-out out.def] [-guide out.guide]
//	    [-timeout 10m] [-iter-timeout 30s]
//	    [-checkpoint-dir ckpt/] [-resume]
//	    [-eco-from ckpt/ -eco-delta edit.json]
//
// With -eco-delta the command runs the incremental ECO entry point instead
// of a full flow: the JSON delta (moved cells, rewired nets, added/removed
// cells — see internal/eco) is applied transactionally and only the dirty
// region is re-optimized, one scoped CR&P iteration per round, falling back
// to a full run when the edit is structural or the dirty frontier keeps
// growing. -eco-from restores the parent run's state from its checkpoint
// directory; without it the input DEF's placement is taken as the parent
// state and global routing runs fresh. In ECO mode -k is the iteration
// count of the full-run fallback, as it is the iteration count of every
// other CR&P run; the local rounds are unaffected.
//
// Without -out/-guide the flow still runs and prints the metrics, so the
// command doubles as an evaluator for the CR&P flow. With -timeout or
// -iter-timeout the run degrades instead of hanging: on deadline the
// best-so-far DEF/guide outputs are still written, the degradations are
// printed, and the command exits non-zero.
//
// With -checkpoint-dir the run journals a crash-safe checkpoint after
// global routing and after every CR&P iteration; -resume continues from
// the newest usable checkpoint (bit-identically to an uninterrupted run)
// and starts fresh when the directory holds none — so the same command
// line can simply be rerun after a crash.
// Output files are written atomically (temp + fsync + rename): a crash
// mid-write never leaves a torn DEF or guide file behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/eval"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/route/global"
)

func main() {
	var (
		lefPath     = flag.String("lef", "", "technology + macro library (LEF subset)")
		defPath     = flag.String("def", "", "design (DEF subset)")
		k           = flag.Int("k", 10, "CR&P iterations")
		outDEF      = flag.String("out", "", "write the post-CR&P placement DEF here")
		outGuide    = flag.String("guide", "", "write the route guides here")
		gamma       = flag.Float64("gamma", 0.6, "critical-set fraction (Algorithm 1)")
		seed        = flag.Int64("seed", 1, "selection seed")
		baseline    = flag.Bool("baseline", false, "skip CR&P: plain GR+DR flow")
		showPhase   = flag.Bool("phases", false, "print the CR&P phase breakdown")
		heat        = flag.Bool("congestion", false, "print the post-flow congestion heatmap")
		worst       = flag.Int("worst", 0, "print the N most expensive nets after routing")
		timeout     = flag.Duration("timeout", time.Duration(0), "whole-flow wall-clock budget (0 = unlimited)")
		iterTimeout = flag.Duration("iter-timeout", time.Duration(0), "per-CR&P-iteration budget (0 = unlimited)")
		ckptDir     = flag.String("checkpoint-dir", "", "journal crash-safe checkpoints into this directory")
		ckptKeep    = flag.Int("checkpoint-keep", 0, "checkpoints to retain (0 = default 2)")
		resume      = flag.Bool("resume", false, "continue from the newest checkpoint in -checkpoint-dir (fresh start if none)")
		ecoFrom     = flag.String("eco-from", "", "incremental re-run: checkpoint directory of the parent run")
		ecoDelta    = flag.String("eco-delta", "", "incremental re-run: JSON delta file (moves/nets/adds/removes)")
		ecoHalo     = flag.Int("eco-halo", 0, "ECO dirty-region halo in GCells (0 = default)")
	)
	flag.Parse()
	if *lefPath == "" || *defPath == "" {
		fmt.Fprintln(os.Stderr, "crp: -lef and -def are required")
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "crp: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if *ecoFrom != "" && *ecoDelta == "" {
		fmt.Fprintln(os.Stderr, "crp: -eco-from requires -eco-delta")
		os.Exit(2)
	}

	lf, err := os.Open(*lefPath)
	if err != nil {
		fatal(err)
	}
	t, macros, err := lefdef.ParseLEF(lf)
	lf.Close()
	if err != nil {
		fatal(err)
	}
	df, err := os.Open(*defPath)
	if err != nil {
		fatal(err)
	}
	d, err := lefdef.ParseDEF(df, t, macros)
	df.Close()
	if err != nil {
		fatal(err)
	}
	st := d.Stats()
	fmt.Printf("loaded %s: %d cells, %d nets, %d rows (%s)\n",
		d.Name, st.Cells, st.Nets, st.Rows, st.Node)

	cfg := flow.DefaultConfig()
	if *k > 0 {
		cfg.CRP.Iterations = *k
	}
	cfg.CRP.Gamma = *gamma
	cfg.CRP.Seed = *seed
	cfg.Budgets.Flow = *timeout
	cfg.Budgets.CRPIteration = *iterTimeout
	ctx := context.Background()

	if *baseline && *ecoDelta == "" {
		res := flow.RunBaseline(ctx, d, cfg)
		fmt.Printf("baseline: %v\n", res.Metrics)
		fmt.Printf("runtime: GR %.2fs, DR %.2fs\n",
			res.Timings.GlobalRoute.Seconds(), res.Timings.DetailRoute.Seconds())
		if *worst > 0 {
			fmt.Printf("\nworst %d nets:\n", *worst)
			if err := eval.WriteNetReport(os.Stdout, d, res.Metrics, *worst); err != nil {
				fatal(err)
			}
		}
		reportDegradations(res)
		if res.DeadlineHit() {
			os.Exit(1)
		}
		return
	}

	// Inputs that can be refused are checked before the outputs exist.
	var ck *flow.Checkpointing
	var parent *checkpoint.Manager
	var delta *eco.Delta
	switch {
	case *ecoDelta != "":
		raw, err := os.ReadFile(*ecoDelta)
		if err != nil {
			fatal(err)
		}
		if delta, err = eco.Parse(raw); err != nil {
			fatal(err)
		}
		if *ecoFrom != "" {
			if parent, err = checkpoint.Open(*ecoFrom, 0); err != nil {
				fatal(err)
			}
		}
	case *ckptDir != "":
		mgr, err := checkpoint.Open(*ckptDir, *ckptKeep)
		if err != nil {
			fatal(err)
		}
		ck = &flow.Checkpointing{Manager: mgr}
	}

	// Outputs are committed atomically after the flow finishes: a crash at
	// any point leaves either the previous file or the new one, never a
	// torn in-between.
	var outs atomicio.Outputs
	defer outs.Abort()
	defW, err := outs.Create(*outDEF)
	if err != nil {
		fatal(err)
	}
	guideW, err := outs.Create(*outGuide)
	if err != nil {
		fatal(err)
	}

	// The flow writes the DEF/guides even on a degraded run, so a deadline
	// still yields the best-so-far outputs before the non-zero exit.
	var res *flow.Result
	opts := flow.ECOOptions{HaloGCells: *ecoHalo}
	switch {
	case parent != nil:
		res, err = flow.ECOFromCheckpoint(ctx, d, parent, delta, cfg, opts, defW, guideW)
	case delta != nil:
		res, err = flow.RunECO(ctx, d, nil, delta, cfg, opts, defW, guideW)
	case *resume:
		res, err = flow.Resume(ctx, d, 0, cfg, ck, defW, guideW)
		if errors.Is(err, flow.ErrNoCheckpoint) {
			fmt.Println("no checkpoint to resume; starting fresh")
			res, err = flow.RunCRPCheckpointed(ctx, d, 0, cfg, ck, defW, guideW)
		}
	default:
		res, err = flow.RunCRPCheckpointed(ctx, d, 0, cfg, ck, defW, guideW)
	}
	if err != nil {
		fatal(err)
	}
	if err := outs.Commit(); err != nil {
		fatal(err)
	}

	if es := res.ECO; es != nil {
		fmt.Printf("ECO: %v\n", res.Metrics)
		fmt.Printf("delta: %d moves, %d rewired nets, %d adds, %d removes\n",
			es.DeltaMoves, es.DeltaNets, es.DeltaAdds, es.DeltaRemoves)
		if es.FullRun {
			fmt.Println("convergence: full-run fallback")
		} else {
			fmt.Printf("convergence: %d round(s), dirty %d/%d cells, halo widened: %v\n",
				es.Rounds, es.DirtyCells, es.TotalCells, es.HaloWidened)
		}
		fmt.Printf("work: %d candidate estimates, ", es.CandidateEstimates)
	} else {
		fmt.Printf("CR&P k=%d: %v\n", *k, res.Metrics)
	}
	fmt.Printf("moved %d cells; runtime: GR %.2fs, CR&P %.2fs, DR %.2fs\n",
		res.CRPStats.TotalMoved,
		res.Timings.GlobalRoute.Seconds(),
		res.Timings.Middle.Seconds(),
		res.Timings.DetailRoute.Seconds())
	if *showPhase {
		ph := res.Timings.CRPPhases
		fmt.Printf("phases: GCP %.2fs, ECC %.2fs, UD %.2fs, Misc %.2fs\n",
			ph.GCP.Seconds(), ph.ECC.Seconds(), ph.UD.Seconds(), ph.Misc().Seconds())
	}
	// The design reports read d, which a structural ECO delta replaces, so
	// they describe full-flow runs only.
	if *worst > 0 && res.ECO == nil {
		fmt.Printf("\nworst %d nets:\n", *worst)
		if err := eval.WriteNetReport(os.Stdout, d, res.Metrics, *worst); err != nil {
			fatal(err)
		}
	}
	if *heat && res.ECO == nil {
		fmt.Println("\npost-flow congestion heatmap:")
		// Rebuild the grid state by re-running GR on the final placement;
		// cheap relative to the flow and avoids threading grid handles
		// through the flow API.
		g2 := grid.New(d, cfg.Grid)
		r2 := global.New(d, g2, cfg.Global)
		r2.RouteAll()
		if err := g2.Congestion().WriteHeatmap(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *outDEF != "" {
		fmt.Printf("wrote %s\n", *outDEF)
	}
	if *outGuide != "" {
		fmt.Printf("wrote %s\n", *outGuide)
	}
	reportDegradations(res)
	if res.DeadlineHit() {
		fmt.Fprintln(os.Stderr, "crp: wall-clock budget expired; outputs hold the best-so-far solution")
		os.Exit(1)
	}
}

// reportDegradations prints every fault-tolerance event of the run.
func reportDegradations(res *flow.Result) {
	if !res.Degraded() {
		return
	}
	fmt.Printf("degraded run: %d event(s)\n", len(res.Degradations))
	for _, dg := range res.Degradations {
		fmt.Printf("  %s\n", dg)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crp:", err)
	os.Exit(1)
}
