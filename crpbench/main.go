// Command crpbench is the repository's benchmark. It drives the CR&P system
// only through its public calls, on four seeded workloads, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a traced
// run) as one JSON object on the last line of standard output. Every output
// the program produces is checked by an independent checker; see README.md.
//
// Usage (from the repository root):
//
//	bash crpbench/run.sh --workload flow_fig3 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// opts are the command-line settings every workload receives.
type opts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory inside the checkout
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	failures          []string
	endToEnd          map[string]metric
	perLayer          map[string]metric
	table             []string // human-readable lines, printed before the JSON
	input             inputStamp
}

// inputStamp identifies the generated inputs of a run.
type inputStamp struct {
	Circuit string  `json:"circuit"`
	Scale   float64 `json:"scale"`
	Cells   int     `json:"cells"`
	Nets    int     `json:"nets"`
	K       int     `json:"k"`
	// Circuits is how many seeded designs the run cycles through; Cells
	// and Nets are their means.
	Circuits int    `json:"circuits"`
	SHA256   string `json:"inputs_sha256"`
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	why string
	run func(o opts) (*outcome, error)
}

var workloads = map[string]workload{
	"flow_fig3":   {"crp_test7 at 0.004: CR&P (GCP/ECC) dominates the flow, as in the paper's Fig. 3", runFlowFig3},
	"flow_scaled": {"crp_test7 at 0.02: global routing dominates the same flow", runFlowScaled},
	"eco_ckpt":    {"seeded ECO deltas from a k=10 checkpoint: restore, scoped CR&P and DR, no GR", runECOCkpt},
	"crpd_mix":    {"in-process crpd with 2 workers and 2 clients: fresh, cached and ECO jobs", runCRPDMix},
}

func main() {
	name := flag.String("workload", "", "workload: flow_fig3, flow_scaled, eco_ckpt or crpd_mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "crpbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	o, err := w.run(opts{seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *trace == 1, dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	printStamp(*name, *seed, *trace, o.input)
	for _, l := range o.table {
		fmt.Println(l)
	}
	for _, f := range o.failures {
		fmt.Println("FAILED:", f)
	}
	metrics := o.endToEnd
	if *trace == 1 {
		metrics = o.perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics}
	buf, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crpbench:", err)
	os.Exit(1)
}

// printStamp writes the line that ties a result to its host, toolchain,
// code and inputs.
func printStamp(name string, seed int64, trace int, in inputStamp) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	stamp := map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace":         trace,
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceHash(),
		"input":         in,
	}
	buf, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(buf))
}

// sourceHash identifies the measured code when the checkout carries no VCS
// metadata: a SHA-256 over go.mod and every Go file under internal/, in path
// order.
func sourceHash() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
