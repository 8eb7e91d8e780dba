package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Metric names and units. BENCHMARK.json lists the same names; a unit test
// keeps the two in step.
var endToEndUnits = []nameUnit{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"ops_per_s", "1/s"},
	{"vias", "count"},
	{"wirelength_um", "um"},
	{"peak_rss_mb", "MB"},
}

var perLayerUnits = []nameUnit{
	{"trace_overhead_pct", "%"},
	{"op.uncovered_s", "s"},
	{"lefdef.parse_s", "s"}, {"lefdef.write_s", "s"}, {"lefdef.self_s", "s"}, {"lefdef.alloc_mb", "MB"},
	{"global.route_s", "s"}, {"global.maze_routes", "count"}, {"global.rrr_passes", "count"},
	{"global.total_overflow", "count"}, {"global.self_s", "s"}, {"global.alloc_mb", "MB"},
	{"crp.iterate_s", "s"}, {"crp.label_s", "s"}, {"crp.gcp_s", "s"}, {"crp.gcp_gen_cpu_s", "s"},
	{"crp.gcp_ilp_cpu_s", "s"}, {"crp.ecc_s", "s"}, {"crp.select_s", "s"}, {"crp.ud_s", "s"},
	{"crp.candidate_estimates", "count"}, {"crp.moved_cells", "count"}, {"crp.move_yield", "ratio"},
	{"crp.self_s", "s"}, {"crp.alloc_mb", "MB"},
	{"legal.window_hit_ratio", "ratio"}, {"legal.solve_hit_ratio", "ratio"},
	{"legal.shortcut_solves", "count"}, {"legal.budget_dropped", "count"},
	{"ilp.select_nodes", "count"},
	{"detail.route_s", "s"}, {"detail.drvs", "count"}, {"detail.self_s", "s"}, {"detail.alloc_mb", "MB"},
	{"eval.self_s", "s"},
	{"atomicio.outputs_s", "s"},
	{"checkpoint.latest_s", "s"}, {"checkpoint.save_s", "s"}, {"checkpoint.bytes", "B"},
	{"checkpoint.self_s", "s"}, {"checkpoint.alloc_mb", "MB"},
	{"view.rebuild_s", "s"}, {"view.materialize_s", "s"}, {"view.self_s", "s"}, {"view.alloc_mb", "MB"},
	{"eco.run_s", "s"}, {"eco.middle_s", "s"}, {"eco.dirty_cells", "count"}, {"eco.rounds", "count"},
	{"eco.candidate_estimates", "count"}, {"eco.work_ratio", "ratio"}, {"eco.full_run_frac", "fraction"},
	{"eco.self_s", "s"}, {"eco.alloc_mb", "MB"},
	{"service.admit_ms", "ms"}, {"service.queue_wait_s", "s"}, {"service.run.fresh_s", "s"},
	{"service.run.eco_s", "s"}, {"service.eco_job_s_p50", "s"}, {"service.cached_job_ms_p50", "ms"},
	{"service.cache_hit_ratio", "ratio"}, {"service.attempts_per_job", "count"}, {"service.refused", "count"},
	{"service.self_s", "s"}, {"service.alloc_mb", "MB"},
}

type nameUnit struct{ name, unit string }

// qor is the Table III quality of result of one output.
type qor struct {
	vias  int64
	wlUM  float64
	drvs  int
	score float64
}

func (q qor) String() string {
	return fmt.Sprintf("vias=%d wl=%.3fum drvs=%d score=%.3f", q.vias, q.wlUM, q.drvs, q.score)
}

// qorMeans averages QoR over distinct inputs (each input counted once).
type qorMeans struct{ vias, wl, drvs, score []float64 }

func (m *qorMeans) add(q qor) {
	m.vias = append(m.vias, float64(q.vias))
	m.wl = append(m.wl, q.wlUM)
	m.drvs = append(m.drvs, float64(q.drvs))
	m.score = append(m.score, q.score)
}

// repeatSetup runs a workload's set-up n times in fresh directories and
// keeps the last one; earlier ones are torn down at once. It returns the
// kept environment and every set-up's wall time.
func repeatSetup[E any](o opts, n int, setup func(dir string) (E, error), teardown func(E)) (E, []float64, error) {
	var env E
	var times []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return env, nil, err
		}
		t0 := time.Now()
		e, err := setup(dir)
		if err != nil {
			return env, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(e)
			os.RemoveAll(dir)
			continue
		}
		env = e
	}
	return env, times, nil
}

// warmup is how long a closed loop runs before its measured window opens:
// the first ops of a process pay for heap growth and cold caches.
const warmup = 1500 * time.Millisecond

// window paces a closed loop: ops that start in the first warmup are run and
// checked but not timed; the measured window then lasts o.seconds from the
// first op that starts after the warm-up.
type window struct {
	warmEnd, deadline time.Time
	seconds           time.Duration
}

func newWindow(o opts) *window { return &window{warmEnd: time.Now().Add(warmup), seconds: o.seconds} }

// next reports whether another op should start, and whether it is timed.
func (w *window) next() (run, measured bool) {
	now := time.Now()
	if w.deadline.IsZero() {
		if now.Before(w.warmEnd) {
			return true, false
		}
		w.deadline = now.Add(w.seconds)
	}
	return now.Before(w.deadline), true
}

// setupRuns is how many set-ups a run times: three for the end-to-end
// median, one for a traced run (which reports no set-up time).
func setupRuns(o opts) int {
	if o.traced {
		return 1
	}
	return 3
}

// endToEnd assembles the end-to-end metric set shared by every workload.
func endToEnd(setup, opLat []float64, opsPerS float64, q qorMeans, rssMB float64) map[string]metric {
	vals := map[string]float64{
		"setup_s":       median(setup),
		"op_s_p50":      median(opLat),
		"ops_per_s":     opsPerS,
		"vias":          mean(q.vias),
		"wirelength_um": mean(q.wl),
		"peak_rss_mb":   rssMB,
	}
	out := map[string]metric{}
	for _, nu := range endToEndUnits {
		out[nu.name] = metric{Value: vals[nu.name], Unit: nu.unit}
	}
	return out
}

// layerAcc gathers per-root samples of per-layer metrics; each metric is
// reported as the median over the roots (ops, set-ups, probes) that
// exercised it, and as 0 where no root did.
type layerAcc struct {
	vals  map[string][]float64
	notes []string
}

func newLayerAcc() *layerAcc { return &layerAcc{vals: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.vals[name] = append(a.vals[name], v) }

// addSpans folds a tracer's spans in: per root, each span name's summed
// time as "<span>_s", each layer's self time and allocation, and each op's
// uncovered wall time.
func (a *layerAcc) addSpans(spans []Span) {
	for _, r := range sumByRoot(spans) {
		if r.kind == "op" {
			a.add("op.uncovered_s", r.uncovered.Seconds())
		}
		self := map[string]float64{}
		alloc := map[string]float64{}
		for name, d := range r.dur {
			if name == "service.submit" {
				a.add("service.admit_ms", d.Seconds()*1e3)
			} else {
				a.add(name+"_s", d.Seconds())
			}
			layer, _, _ := strings.Cut(name, ".")
			self[layer] += r.self[name].Seconds()
			alloc[layer] += float64(r.alloc[name]) / (1 << 20)
		}
		for layer, v := range self {
			a.add(layer+".self_s", v)
		}
		for layer, v := range alloc {
			a.add(layer+".alloc_mb", v)
		}
	}
}

// metrics renders every per-layer metric, 0 where nothing exercised it.
func (a *layerAcc) metrics() map[string]metric {
	out := map[string]metric{}
	for _, nu := range perLayerUnits {
		v := 0.0
		if xs := a.vals[nu.name]; len(xs) > 0 {
			v = median(xs)
		}
		out[nu.name] = metric{Value: v, Unit: nu.unit}
	}
	return out
}

// table lists which per-layer metrics this run measured and which it
// reports as 0 because the workload never reaches that layer from outside.
func (a *layerAcc) table() []string {
	var measured, zero []string
	for _, nu := range perLayerUnits {
		if len(a.vals[nu.name]) > 0 {
			measured = append(measured, fmt.Sprintf("%s=%.6g%s(n=%d)", nu.name, median(a.vals[nu.name]), nu.unit, len(a.vals[nu.name])))
		} else {
			zero = append(zero, nu.name)
		}
	}
	lines := []string{"per-layer (median over roots): " + strings.Join(measured, " ")}
	lines = append(lines, "not exercised on this workload (reported as 0): "+strings.Join(zero, " "))
	return append(lines, a.notes...)
}

// overheadPct is the traced op median against the untraced op median.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}

// issueTable prints the end-to-end figures under the names the benchmark's
// design uses per workload (flow_s_*, eco_s_*, *_job_*), each timing with its
// sample count, so every workload shows all sixteen.
func issueTable(workload string, setup []float64, lat map[string][]float64, jobsPerS float64, admitMS []float64, attempted, failed int, q qorMeans, rssMB float64) []string {
	lines := []string{fmt.Sprintf("%-22s %.6g s (median of %d set-ups)", "setup_s", median(setup), len(setup))}
	row := func(name string, xs []float64, unit string, scale float64) {
		if xs == nil {
			lines = append(lines, fmt.Sprintf("%-22s n/a (not measured on %s)", name+"_p50", workload),
				fmt.Sprintf("%-22s n/a (not measured on %s)", name+"_p90", workload))
			return
		}
		lines = append(lines, timing(name, xs, unit, scale)...)
	}
	row("flow_s", lat["flow"], "s", 1)
	row("eco_s", lat["eco"], "s", 1)
	row("fresh_job_s", lat["fresh"], "s", 1)
	row("eco_job_s", lat["eco_job"], "s", 1)
	row("cached_job_ms", lat["cached"], "ms", 1e3)
	if jobsPerS > 0 {
		lines = append(lines, fmt.Sprintf("%-22s %.6g 1/s", "jobs_per_s", jobsPerS))
	} else {
		lines = append(lines, fmt.Sprintf("%-22s n/a (not measured on %s)", "jobs_per_s", workload))
	}
	if admitMS != nil && p90Reportable(len(admitMS)) {
		lines = append(lines, fmt.Sprintf("%-22s %.6g ms (n=%d)", "admit_ms_p90", quantile(admitMS, 0.9), len(admitMS)))
	} else if admitMS != nil {
		lines = append(lines, fmt.Sprintf("%-22s n/a (n=%d; p90 needs >=100 samples)", "admit_ms_p90", len(admitMS)))
	} else {
		lines = append(lines, fmt.Sprintf("%-22s n/a (not measured on %s)", "admit_ms_p90", workload))
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	drvs := fmt.Sprintf("%-22s %.6g count", "drvs", mean(q.drvs))
	if len(q.drvs) == 0 {
		drvs = fmt.Sprintf("%-22s n/a (job status carries no DRV count; score includes DRVs)", "drvs")
	}
	return append(lines,
		fmt.Sprintf("%-22s %.6g (%d of %d)", "failed_frac", frac, failed, attempted),
		fmt.Sprintf("%-22s %.6g count (mean over %d inputs)", "vias", mean(q.vias), len(q.vias)),
		fmt.Sprintf("%-22s %.6g um", "wirelength_um", mean(q.wl)),
		drvs,
		fmt.Sprintf("%-22s %.6g", "score", mean(q.score)),
		fmt.Sprintf("%-22s %.6g MB", "peak_rss_mb", rssMB))
}
