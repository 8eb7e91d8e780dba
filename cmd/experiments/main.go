// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments -table2                # benchmark statistics (Table II)
//	experiments -table3 -fig2 -fig3    # full four-flow sweep
//	experiments -all -scale 0.02 -circuits 0,1,2
//
// The sweep runs four flows per circuit (baseline, [18] substitute, CR&P
// k=1, CR&P k=10), each on a fresh copy of the design.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/crp-eda/crp/internal/atomicio"
	"github.com/crp-eda/crp/internal/experiments"
)

func main() {
	var (
		table2   = flag.Bool("table2", false, "print Table II (benchmark statistics)")
		table3   = flag.Bool("table3", false, "run the sweep and print Table III")
		fig2     = flag.Bool("fig2", false, "run the sweep and print Fig. 2 (runtimes)")
		fig3     = flag.Bool("fig3", false, "run the sweep and print Fig. 3 (breakdown)")
		all      = flag.Bool("all", false, "shorthand for -table2 -table3 -fig2 -fig3")
		scale    = flag.Float64("scale", 0.02, "fraction of the contest circuit sizes")
		circuits = flag.String("circuits", "", "comma-separated suite indices 0-9 (default all)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		outPath  = flag.String("out", "", "also write the report here (atomic: temp + fsync + rename)")
	)
	flag.Parse()
	if *all {
		*table2, *table3, *fig2, *fig3 = true, true, true, true
	}
	if !*table2 && !*table3 && !*fig2 && !*fig3 {
		flag.Usage()
		os.Exit(2)
	}

	// The report goes to stdout and, with -out, tees into an atomic file
	// replacement committed at the end — a killed sweep never leaves a
	// torn report.
	var outs atomicio.Outputs
	defer outs.Abort()
	out, err := outs.CreateTee(*outPath, os.Stdout)
	if err != nil {
		fatal(err)
	}
	commit := func() {
		if err := outs.Commit(); err != nil {
			fatal(err)
		}
	}

	if *table2 {
		if err := experiments.Table2(out, *scale); err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
	}
	if !*table3 && !*fig2 && !*fig3 {
		commit()
		return
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *circuits != "" {
		for _, part := range strings.Split(*circuits, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -circuits entry %q: %w", part, err))
			}
			opts.Circuits = append(opts.Circuits, i)
		}
	}
	results, err := experiments.Run(opts)
	if err != nil {
		fatal(err)
	}
	if *table3 {
		experiments.Table3(out, results)
		fmt.Fprintln(out)
	}
	if *fig2 {
		experiments.Fig2(out, results)
		fmt.Fprintln(out)
	}
	if *fig3 {
		experiments.Fig3(out, results)
	}
	commit()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
