// File-driven flow: the framework exactly as Fig. 1 presents it — LEF and
// DEF files in, improved DEF and route-guide files out. The example writes
// a benchmark to disk, re-reads it through the LEF/DEF parsers (proving the
// file interface is lossless), runs the CR&P flow, and emits the outputs a
// detailed router like TritonRoute would consume.
//
//	go run ./examples/fileflow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
)

func main() {
	dir, err := os.MkdirTemp("", "crp-fileflow-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Produce the input files, as the contest organisers would.
	src, err := ispd.Generate(ispd.Spec{
		Name: "fileflow", Node: "n45", Cells: 400, Nets: 350,
		Utilisation: 0.88, Hotspots: 2, IOFraction: 0.05, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	lefPath := filepath.Join(dir, "fileflow.lef")
	defPath := filepath.Join(dir, "fileflow.def")
	must(writeTo(lefPath, func(f *os.File) error { return lefdef.WriteLEF(f, src.Tech, src.Macros) }))
	must(writeTo(defPath, func(f *os.File) error { return lefdef.WriteDEF(f, src) }))
	fmt.Printf("inputs : %s, %s\n", lefPath, defPath)

	// 2. Load them back — the flow only sees the files from here on.
	lf, err := os.Open(lefPath)
	must(err)
	t, macros, err := lefdef.ParseLEF(lf)
	lf.Close()
	must(err)
	df, err := os.Open(defPath)
	must(err)
	d, err := lefdef.ParseDEF(df, t, macros)
	df.Close()
	must(err)
	if d.TotalHPWL() != src.TotalHPWL() {
		log.Fatalf("file round trip lost geometry: HPWL %d != %d", d.TotalHPWL(), src.TotalHPWL())
	}
	fmt.Printf("parsed : %d cells, %d nets — HPWL matches the source exactly\n",
		len(d.Cells), len(d.Nets))

	// 3. Run the flow and write the Fig. 1 outputs.
	outDEF, err := os.Create(filepath.Join(dir, "fileflow_crp.def"))
	must(err)
	outGuide, err := os.Create(filepath.Join(dir, "fileflow_crp.guide"))
	must(err)
	res, err := flow.RunCRPCheckpointed(context.Background(), d, 5, flow.DefaultConfig(), nil, outDEF, outGuide)
	must(err)
	must(outDEF.Close())
	must(outGuide.Close())

	fmt.Printf("result : %v\n", res.Metrics)
	for _, name := range []string{"fileflow_crp.def", "fileflow_crp.guide"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		must(err)
		fmt.Printf("output : %s (%d bytes)\n", name, fi.Size())
	}

	// 4. The output DEF is itself parseable — a downstream tool could
	// pick it up directly.
	of, err := os.Open(filepath.Join(dir, "fileflow_crp.def"))
	must(err)
	d2, err := lefdef.ParseDEF(of, t, macros)
	of.Close()
	must(err)
	if err := d2.Validate(); err != nil {
		log.Fatalf("output DEF not legal: %v", err)
	}
	fmt.Println("verify : output DEF parses and the placement is legal")
}

func writeTo(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
