package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/route/detail"
	"github.com/crp-eda/crp/internal/route/global"
	"github.com/crp-eda/crp/internal/view"
)

// ecoScale is the parent circuit's scale: crp_test7 at 1% (~1.7k cells),
// the smallest suite member whose die dwarfs the legalizer window, so small
// edits stay local.
const ecoScale = 0.01

// ecoSizes is the delta cycle: moved cells per delta, each with one rewired
// net.
var ecoSizes = []int{1, 4, 16}

// ecoParent is the set-up product: the parent design's files, its
// checkpoint directory and its placed output (the base deltas are drawn
// against).
type ecoParent struct {
	in        flowInput
	ckpt      string
	placed    *db.Design
	estimates int64 // the parent run's candidate estimates
	def       []byte
	guide     []byte
}

// runParent is the set-up's parent run: cmd/crp with -checkpoint-dir.
func runParent(dir string, in flowInput) (*ecoParent, error) {
	p := &ecoParent{in: in, ckpt: filepath.Join(dir, "ckpt")}
	d, err := parseDesign(in.lef, in.def)
	if err != nil {
		return nil, err
	}
	mgr, err := checkpoint.Open(p.ckpt, 0)
	if err != nil {
		return nil, err
	}
	defPath, guidePath := filepath.Join(dir, "parent.def"), filepath.Join(dir, "parent.guide")
	var outs atomicio.Outputs
	defer outs.Abort()
	defW, err := outs.Create(defPath)
	if err != nil {
		return nil, err
	}
	guideW, err := outs.Create(guidePath)
	if err != nil {
		return nil, err
	}
	res, err := flow.RunCRPCheckpointed(context.Background(), d, flowK, flow.DefaultConfig(), &flow.Checkpointing{Manager: mgr}, defW, guideW)
	if err != nil {
		return nil, err
	}
	if res.Degraded() {
		return nil, fmt.Errorf("parent run degraded: %v", res.Degradations)
	}
	if err := outs.Commit(); err != nil {
		return nil, err
	}
	p.estimates = res.CRPStats.CandidateEstimates
	if p.def, err = os.ReadFile(defPath); err != nil {
		return nil, err
	}
	if p.guide, err = os.ReadFile(guidePath); err != nil {
		return nil, err
	}
	p.placed, err = parseDesign(in.lef, defPath)
	return p, err
}

// tracedParent composes the same checkpointed parent run from the layers'
// public calls, tracing the checkpoint writes (view.Materialize +
// checkpoint.Manager.Save) that every fresh checkpointed run pays for. Its
// outputs must equal the flow's byte for byte.
func tracedParent(tr *Tracer, acc *layerAcc, dir string, in flowInput) (def, guide []byte, err error) {
	ctx := context.Background()
	root := tr.Begin(-1, "setup")
	defer tr.End(root)
	d, err := parseDesign(in.lef, in.def)
	if err != nil {
		return nil, nil, err
	}
	ckptDir := filepath.Join(dir, "ckpt-traced")
	mgr, err := checkpoint.Open(ckptDir, 0)
	if err != nil {
		return nil, nil, err
	}
	cfg := flow.DefaultConfig()
	g := grid.New(d, cfg.Grid)
	r := global.New(d, g, cfg.Global)
	r.RouteAllCtx(ctx)
	v := view.New(d, g, r)
	ccfg := cfg.CRP
	ccfg.Iterations = flowK
	e := crp.New(d, g, r, ccfg)
	save := func(totalMoved int) error {
		st := e.State()
		snap := &checkpoint.Snapshot{DesignName: d.Name, Cells: len(d.Cells), Nets: len(d.Nets),
			K: flowK, Seed: e.Cfg.Seed, Iter: st.Iter, RNGDraws: st.RNGDraws, TotalMoved: totalMoved}
		sp := tr.Begin(root, "view.materialize")
		vs := v.Materialize()
		tr.End(sp)
		snap.SetViewState(vs)
		sp = tr.Begin(root, "checkpoint.save")
		err := mgr.Save(snap)
		tr.End(sp)
		return err
	}
	if err := save(0); err != nil {
		return nil, nil, err
	}
	moved := 0
	for k := 0; k < flowK; k++ {
		st := e.Iterate(ctx)
		moved += st.MovedCells
		if err := save(moved); err != nil {
			return nil, nil, err
		}
		if e.Broken() {
			break
		}
	}
	detail.RouteCtx(ctx, d, g, r.Routes, cfg.Detail)
	var defB, guideB strings.Builder
	if err := lefdef.WriteDEF(&defB, d); err != nil {
		return nil, nil, err
	}
	if err := lefdef.WriteGuides(&guideB, d, g, r.Routes); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		return nil, nil, err
	}
	var bytesSum, files float64
	for _, en := range entries {
		if fi, err := en.Info(); err == nil && strings.HasPrefix(en.Name(), "ckpt-") {
			bytesSum += float64(fi.Size())
			files++
		}
	}
	if files > 0 {
		acc.add("checkpoint.bytes", bytesSum/files)
	}
	return []byte(defB.String()), []byte(guideB.String()), nil
}

// ecoOp is cmd/crp's -eco-from path: parse the input design, open the
// parent's checkpoint directory, read and parse the delta, run
// flow.ECOFromCheckpoint and commit the outputs atomically.
func ecoOp(ctx context.Context, p *ecoParent, ckptDir, deltaPath, defOut, guideOut string) (qor, error) {
	d, err := parseDesign(p.in.lef, p.in.def)
	if err != nil {
		return qor{}, err
	}
	mgr, err := checkpoint.Open(ckptDir, 0)
	if err != nil {
		return qor{}, err
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		return qor{}, err
	}
	delta, err := eco.Parse(raw)
	if err != nil {
		return qor{}, err
	}
	var outs atomicio.Outputs
	defer outs.Abort()
	defW, err := outs.Create(defOut)
	if err != nil {
		return qor{}, err
	}
	guideW, err := outs.Create(guideOut)
	if err != nil {
		return qor{}, err
	}
	res, err := flow.ECOFromCheckpoint(ctx, d, mgr, delta, flow.DefaultConfig(), flow.ECOOptions{}, defW, guideW)
	if err != nil {
		return qor{}, err
	}
	if res.DeadlineHit() {
		return qor{}, fmt.Errorf("eco run hit a deadline: %v", res.Degradations)
	}
	if err := outs.Commit(); err != nil {
		return qor{}, err
	}
	return qorOf(res.Metrics), nil
}

// ecoOpTraced is the same op with the checkpoint read and the ECO run as
// separate spans (flow.ECOFromCheckpoint is exactly Latest + RunECO). The
// ECO run's inner stages are read from its own result: Timings.Middle
// (rebuild, delta apply, scoped CR&P) and Timings.DetailRoute.
func ecoOpTraced(ctx context.Context, tr *Tracer, acc *layerAcc, p *ecoParent, ckptDir, deltaPath, defOut, guideOut string) (qor, error) {
	root := tr.Begin(-1, "op")
	defer tr.End(root)
	sp := tr.Begin(root, "lefdef.parse")
	d, err := parseDesign(p.in.lef, p.in.def)
	tr.End(sp)
	if err != nil {
		return qor{}, err
	}
	sp = tr.Begin(root, "checkpoint.latest")
	mgr, err := checkpoint.Open(ckptDir, 0)
	var snap *checkpoint.Snapshot
	if err == nil {
		snap, _, err = mgr.Latest()
	}
	tr.End(sp)
	if err != nil {
		return qor{}, err
	}
	sp = tr.Begin(root, "eco.parse")
	raw, err := os.ReadFile(deltaPath)
	var delta *eco.Delta
	if err == nil {
		delta, err = eco.Parse(raw)
	}
	tr.End(sp)
	if err != nil {
		return qor{}, err
	}
	if snap.DesignName != d.Name || snap.Cells != len(d.Cells) || snap.Nets != len(d.Nets) {
		return qor{}, fmt.Errorf("checkpoint is for %s (%d cells), input is %s (%d cells)", snap.DesignName, snap.Cells, d.Name, len(d.Cells))
	}
	var outs atomicio.Outputs
	defer outs.Abort()
	sp = tr.Begin(root, "atomicio.outputs")
	defW, err1 := outs.Create(defOut)
	guideW, err2 := outs.Create(guideOut)
	tr.End(sp)
	if err1 != nil || err2 != nil {
		return qor{}, fmt.Errorf("creating outputs: %v %v", err1, err2)
	}
	st := snap.ViewState()
	sp = tr.Begin(root, "eco.run")
	res, err := flow.RunECO(ctx, d, &st, delta, flow.DefaultConfig(), flow.ECOOptions{}, defW, guideW)
	tr.End(sp)
	if err != nil {
		return qor{}, err
	}
	if res.DeadlineHit() {
		return qor{}, fmt.Errorf("eco run hit a deadline: %v", res.Degradations)
	}
	sp = tr.Begin(root, "atomicio.outputs")
	err = outs.Commit()
	tr.End(sp)
	if err != nil {
		return qor{}, err
	}

	es := res.ECO
	acc.add("eco.middle_s", res.Timings.Middle.Seconds())
	acc.add("detail.route_s", res.Timings.DetailRoute.Seconds())
	acc.add("detail.drvs", float64(res.Metrics.DRVs.Total()))
	acc.add("eco.dirty_cells", float64(es.DirtyCells))
	acc.add("eco.rounds", float64(es.Rounds))
	acc.add("eco.candidate_estimates", float64(es.CandidateEstimates))
	acc.add("eco.work_ratio", ratio(p.estimates, es.CandidateEstimates))
	full := 0.0
	if es.FullRun {
		full = 1
	}
	acc.add("eco.full_run_frac", full)
	addCRPCounters(acc, res.CRPStats, res.CRPStats.CandidateEstimates)

	return qorOf(res.Metrics), nil
}

// rebuildProbe times view.Rebuild on the op's input as a root of its own.
// RunECO runs the same call internally; the probe measures it without
// adding to the op's wall time or span tree.
func rebuildProbe(tr *Tracer, p *ecoParent, ckptDir string) error {
	probe := tr.Begin(-1, "probe")
	defer tr.End(probe)
	d, err := parseDesign(p.in.lef, p.in.def)
	if err != nil {
		return err
	}
	mgr, err := checkpoint.Open(ckptDir, 0)
	if err != nil {
		return err
	}
	snap, _, err := mgr.Latest()
	if err != nil {
		return err
	}
	cfg := flow.DefaultConfig()
	sp := tr.Begin(probe, "view.rebuild")
	_, err = view.Rebuild(d, cfg.Grid, cfg.Global, snap.ViewState())
	tr.End(sp)
	return err
}

// deltaSource draws the seeded delta cycle against the parent's placement,
// writing each delta's canonical JSON once.
type deltaSource struct {
	seed  int64
	base  *db.Design
	dir   string
	paths map[int]string
}

// path returns delta j's file. Delta j's definition: size from the cycle, generator seed from the
// workload seed. A generator miss (no free target) retries the next sub-seed.
func (s *deltaSource) path(j int) (string, error) {
	if p, ok := s.paths[j]; ok {
		return p, nil
	}
	size := ecoSizes[j%len(ecoSizes)]
	var dl *eco.Delta
	var err error
	for a := 0; a < 8; a++ {
		if dl, err = eco.GenerateDelta(s.base, size, 1, splitmix(s.seed, "delta", j*8+a)); err == nil {
			break
		}
	}
	if err != nil {
		return "", fmt.Errorf("delta %d: %w", j, err)
	}
	canon, err := dl.Canonical()
	if err != nil {
		return "", err
	}
	p := filepath.Join(s.dir, fmt.Sprintf("delta%04d.json", j))
	if err := os.WriteFile(p, canon, 0o644); err != nil {
		return "", err
	}
	s.paths[j] = p
	return p, nil
}

func runECOCkpt(o opts) (*outcome, error) {
	type env struct {
		parent *ecoParent
		hash   string
	}
	e, setup, err := repeatSetup(o, setupRuns(o), func(dir string) (env, error) {
		ins, h, err := genCircuits(dir, ecoScale, 1, o.seed, "parent")
		if err != nil {
			return env{}, err
		}
		p, err := runParent(dir, ins[0])
		return env{p, h}, err
	}, func(env) {})
	if err != nil {
		return nil, err
	}
	p := e.parent
	// The input hash covers the generated circuit and the delta cycle's
	// definition (sizes and generator seeds); the deltas' JSON depends on
	// the parent run's output, which is the program's, not the input's.
	h := sha256.New()
	h.Write([]byte(e.hash))
	for j := 0; j < 64; j++ {
		fmt.Fprintf(h, "%d:%d:%d\n", j, ecoSizes[j%len(ecoSizes)], splitmix(o.seed, "delta", j*8))
	}
	out := &outcome{input: inputStamp{Circuit: "crp_test7", Scale: ecoScale, Cells: p.in.cells, Nets: p.in.nets,
		K: flowK, Circuits: 1, SHA256: hex.EncodeToString(h.Sum(nil))}}

	tr := NewTracer()
	acc := newLayerAcc()
	tracedCkpt := p.ckpt
	if o.traced {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", setupRuns(o)-1))
		def, guide, err := tracedParent(tr, acc, dir, p.in)
		if err != nil {
			return nil, fmt.Errorf("traced parent: %w", err)
		}
		if string(def) != string(p.def) || string(guide) != string(p.guide) {
			out.fail("traced parent run: outputs differ from flow.RunCRPCheckpointed's")
		}
		tracedCkpt = filepath.Join(dir, "ckpt-traced")
	}

	ds := &deltaSource{seed: o.seed, base: p.placed, dir: filepath.Join(o.dir, "deltas"), paths: map[int]string{}}
	outDir := filepath.Join(o.dir, "out")
	for _, d := range []string{ds.dir, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	recs := map[int]*outputRecord{}
	var lat, latTraced []float64
	var qm qorMeans
	w := newWindow(o)
	for i := 0; ; i++ {
		run, measured := w.next()
		if !run {
			break
		}
		j := i / 2
		dp, err := ds.path(j)
		if err != nil {
			return nil, err
		}
		defOut := filepath.Join(outDir, fmt.Sprintf("d%04d.def", j))
		guideOut := filepath.Join(outDir, fmt.Sprintf("d%04d.guide", j))
		traced := o.traced && measured && i%2 == 1
		out.attempted++
		t0 := time.Now()
		var q qor
		if traced {
			q, err = ecoOpTraced(ctx, tr, acc, p, tracedCkpt, dp, defOut, guideOut)
		} else {
			q, err = ecoOp(ctx, p, p.ckpt, dp, defOut, guideOut)
		}
		dur := time.Since(t0).Seconds()
		if err != nil {
			out.fail("op %d (delta %d): %v", i, j, err)
			continue
		}
		switch {
		case !measured:
		case traced:
			latTraced = append(latTraced, dur)
			if err := rebuildProbe(tr, p, tracedCkpt); err != nil {
				out.fail("op %d: view.Rebuild probe: %v", i, err)
			}
		default:
			lat = append(lat, dur)
		}
		if _, seen := recs[j]; !seen {
			qm.add(q)
		}
		check := func(def, guide []byte) error { return checkFlowOutputs(p.in, def, guide) }
		if err := recordOutputs(recs, j, q, defOut, guideOut, check); err != nil {
			out.fail("op %d (delta %d): %v", i, j, err)
		}
		// Keep only the newest outputs on disk; the records hold the hashes.
		if i%2 == 1 {
			os.Remove(defOut)
			os.Remove(guideOut)
		}
	}
	rss := peakRSSMB()
	if len(lat) == 0 {
		return nil, fmt.Errorf("eco_ckpt: no op completed (%d failed): %v", out.failed, out.failures)
	}
	out.endToEnd = endToEnd(setup, lat, float64(len(lat))/sum(lat), qm, rss)
	out.table = issueTable("eco_ckpt", setup, map[string][]float64{"eco": lat}, 0, nil, out.attempted, out.failed, qm, rss)
	if o.traced {
		acc.addSpans(tr.Spans())
		acc.add("trace_overhead_pct", overheadPct(latTraced, lat))
		acc.notes = append(acc.notes,
			"eco_ckpt: view.rebuild_s is a probe call beside each traced op (RunECO repeats it internally);",
			"eco_ckpt: eco.middle_s and detail.route_s are RunECO's own Timings; view.Txn.ApplyDelta and the legalizer counters stay inside RunECO and are not measured;",
			"eco_ckpt: checkpoint.save_s, view.materialize_s and checkpoint.bytes come from the traced parent run in set-up.")
		out.perLayer = acc.metrics()
		out.table = append(out.table, acc.table()...)
	}
	return out, nil
}
