// Command benchgen emits the synthetic ISPD-2018-like benchmark suite as
// LEF/DEF file pairs and prints the Table II statistics.
//
// Usage:
//
//	benchgen -out ./benchmarks [-scale 0.02] [-circuit crp_test3] [-stats]
//	benchgen -circuit crp_test3 -eco-delta edit.json [-eco-def run.def] [-eco-moves 8] [-eco-nets 2] [-eco-seed 1]
//
// With -stats only the statistics table is printed and no files are
// written. With -eco-delta a reproducible small edit (k moved cells, m
// reconnected nets, seeded) against the named circuit is written in the
// canonical delta-JSON form cmd/crp's -eco-delta and the service's ECO job
// kind consume — the generator the differential suite and the ECO bench
// share. Move targets must be free against the placement the delta will be
// applied to, so when the parent is a finished run pass its output DEF via
// -eco-def; without it the delta is generated against the circuit's
// synthetic base placement and will usually collide with cells the parent
// run moved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/experiments"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run is the command body: it parses args and writes LEF/DEF pairs, the
// Table II statistics, or an ECO delta, reporting progress to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgen", flag.ExitOnError)
	out := fs.String("out", "benchmarks", "output directory for LEF/DEF pairs")
	scale := fs.Float64("scale", 0.02, "fraction of the contest cell/net counts")
	circuit := fs.String("circuit", "", "generate only this circuit (default: all ten)")
	statsOnly := fs.Bool("stats", false, "print Table II statistics only, write nothing")
	ecoDelta := fs.String("eco-delta", "", "write a seeded ECO delta (canonical JSON) to this path instead of LEF/DEF")
	ecoDEF := fs.String("eco-def", "", "generate the -eco-delta edit against this placed DEF (e.g. the parent run's output) instead of the base placement")
	ecoMoves := fs.Int("eco-moves", 8, "moved cells in the -eco-delta edit")
	ecoNets := fs.Int("eco-nets", 2, "reconnected nets in the -eco-delta edit")
	ecoSeed := fs.Int64("eco-seed", 1, "seed of the -eco-delta edit")
	fs.Parse(args)

	specs := ispd.Suite(*scale)
	if *circuit != "" {
		spec, err := lookupCircuit(specs, *circuit)
		if err != nil {
			return err
		}
		specs = []ispd.Spec{spec}
	}

	if *ecoDelta != "" {
		if *circuit == "" {
			return fmt.Errorf("-eco-delta requires -circuit")
		}
		d, err := ispd.Generate(specs[0])
		if err != nil {
			return err
		}
		if *ecoDEF != "" {
			f, err := os.Open(*ecoDEF)
			if err != nil {
				return err
			}
			placed, err := lefdef.ParseDEF(f, d.Tech, d.Macros)
			f.Close()
			if err != nil {
				return fmt.Errorf("parsing -eco-def: %w", err)
			}
			d = placed
		}
		dl, err := eco.GenerateDelta(d, *ecoMoves, *ecoNets, *ecoSeed)
		if err != nil {
			return err
		}
		canon, err := dl.Canonical()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ecoDelta, append(canon, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d moves, %d rewired nets (seed %d) -> %s\n",
			*circuit, len(dl.Moves), len(dl.Nets), *ecoSeed, *ecoDelta)
		return nil
	}

	if *statsOnly {
		return experiments.Table2(stdout, *scale)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, spec := range specs {
		d, err := ispd.Generate(spec)
		if err != nil {
			return err
		}
		lefPath := filepath.Join(*out, spec.Name+".lef")
		defPath := filepath.Join(*out, spec.Name+".def")
		if err := lefdef.WriteLEFFile(lefPath, d.Tech, d.Macros); err != nil {
			return err
		}
		if err := lefdef.WriteDEFFile(defPath, d); err != nil {
			return err
		}
		st := d.Stats()
		fmt.Fprintf(stdout, "%s: %d cells, %d nets, %.1f%% utilisation -> %s, %s\n",
			spec.Name, st.Cells, st.Nets, st.Utilisation*100, lefPath, defPath)
	}
	return nil
}

// lookupCircuit finds the named circuit in the suite.
func lookupCircuit(specs []ispd.Spec, name string) (ispd.Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return ispd.Spec{}, fmt.Errorf("unknown circuit %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
