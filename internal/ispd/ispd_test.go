package ispd

import (
	"reflect"
	"testing"

	"github.com/crp-eda/crp/internal/geom"
)

func TestSuiteShape(t *testing.T) {
	specs := Suite(0.02)
	if len(specs) != 10 {
		t.Fatalf("suite has %d circuits, want 10", len(specs))
	}
	if specs[0].Node != "n45" || specs[9].Node != "n32" {
		t.Error("node assignment wrong")
	}
	// Table II ordering: test10 has the most cells.
	maxCells := 0
	for _, s := range specs {
		maxCells = max(maxCells, s.Cells)
	}
	if specs[9].Cells != maxCells {
		t.Error("crp_test10 should be the largest circuit")
	}
	// Scaled counts keep Table II's cell ratios approximately: test10 has
	// ~36x the cells of test1 at full size; scaled counts are clamped but
	// ordering must hold.
	if specs[0].Cells >= specs[4].Cells || specs[4].Cells >= specs[9].Cells {
		t.Errorf("cell counts not increasing: %d, %d, %d",
			specs[0].Cells, specs[4].Cells, specs[9].Cells)
	}
}

func TestSuiteClampsTinyScales(t *testing.T) {
	for _, s := range Suite(1e-9) {
		if s.Cells < 50 || s.Nets < 30 {
			t.Errorf("%s: counts below clamp: %d cells %d nets", s.Name, s.Cells, s.Nets)
		}
	}
}

func TestGenerateValidDesign(t *testing.T) {
	spec := Suite(0.01)[0]
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated design invalid: %v", err)
	}
	st := d.Stats()
	if st.Cells == 0 || st.Nets == 0 {
		t.Fatalf("empty design: %+v", st)
	}
}

func TestGenerateHitsTargets(t *testing.T) {
	spec := Spec{
		Name: "target", Node: "n32", Cells: 800, Nets: 700,
		Utilisation: 0.88, Hotspots: 2, Obstacles: 1, IOFraction: 0.05, Seed: 7,
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// Cell count within 10% (row packing can fall slightly short).
	if st.Cells < spec.Cells*9/10 || st.Cells > spec.Cells {
		t.Errorf("cells = %d, want ~%d", st.Cells, spec.Cells)
	}
	if st.Nets != spec.Nets {
		t.Errorf("nets = %d, want %d", st.Nets, spec.Nets)
	}
	// Utilisation near target: the paper's benchmarks are packed tight.
	if st.Utilisation < spec.Utilisation-0.12 || st.Utilisation > spec.Utilisation+0.08 {
		t.Errorf("utilisation = %.3f, want near %.2f", st.Utilisation, spec.Utilisation)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Suite(0.01)[1]
	d1, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Cells) != len(d2.Cells) || len(d1.Nets) != len(d2.Nets) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range d1.Cells {
		if d1.Cells[i].Pos != d2.Cells[i].Pos {
			t.Fatalf("cell %d at %v vs %v", i, d1.Cells[i].Pos, d2.Cells[i].Pos)
		}
	}
	for i := range d1.Nets {
		if len(d1.Nets[i].Pins) != len(d2.Nets[i].Pins) {
			t.Fatalf("net %d degree differs", i)
		}
	}
}

func TestNetsAreMostlyLocal(t *testing.T) {
	spec := Spec{
		Name: "local", Node: "n45", Cells: 600, Nets: 500,
		Utilisation: 0.85, Seed: 3,
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Median net HPWL must be well below the die half-perimeter:
	// clustered netlists are the point of the generator.
	halfPerim := int64(d.Die.W() + d.Die.H())
	var hpwls []int64
	for _, n := range d.Nets {
		hpwls = append(hpwls, d.HPWL(n))
	}
	// Manual median.
	lessCount := 0
	for _, h := range hpwls {
		if h < halfPerim/4 {
			lessCount++
		}
	}
	if lessCount < len(hpwls)*6/10 {
		t.Errorf("only %d/%d nets are local (< quarter half-perimeter)", lessCount, len(hpwls))
	}
}

func TestObstaclesDoNotOverlapCells(t *testing.T) {
	spec := Spec{
		Name: "obs", Node: "n32", Cells: 500, Nets: 300,
		Utilisation: 0.85, Obstacles: 3, Seed: 11,
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Obs) == 0 {
		t.Skip("no obstacles placed for this die size")
	}
	for _, c := range d.Cells {
		for _, o := range d.Obs {
			if c.Rect().Overlaps(o.Rect) {
				t.Fatalf("cell %s overlaps obstacle %s", c.Name, o.Name)
			}
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "nocells", Node: "n45", Cells: 0, Nets: 10, Utilisation: 0.8},
		{Name: "badutil", Node: "n45", Cells: 100, Nets: 10, Utilisation: 1.5},
		{Name: "badnode", Node: "n7", Cells: 100, Nets: 10, Utilisation: 0.8},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("%s: want error", s.Name)
		}
	}
}

func TestIOPinsOnBoundary(t *testing.T) {
	spec := Spec{
		Name: "io", Node: "n45", Cells: 300, Nets: 400,
		Utilisation: 0.8, IOFraction: 0.5, Seed: 5,
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, n := range d.Nets {
		for _, io := range n.IOs {
			found++
			onEdge := io.Pos.X == d.Die.Lo.X || io.Pos.X == d.Die.Hi.X-1 ||
				io.Pos.Y == d.Die.Lo.Y || io.Pos.Y == d.Die.Hi.Y-1
			if !onEdge {
				t.Fatalf("IO pin at %v not on die boundary %v", io.Pos, d.Die)
			}
			if !d.Die.Contains(io.Pos) {
				t.Fatalf("IO pin %v outside die", io.Pos)
			}
		}
	}
	if found == 0 {
		t.Error("IOFraction 0.5 produced no IO pins")
	}
}

func TestEveryNetHasDriver(t *testing.T) {
	d, err := Generate(Suite(0.01)[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets {
		if n.Degree() < 2 {
			t.Fatalf("net %s has degree %d", n.Name, n.Degree())
		}
		// First pin is the driver's output pin Z.
		c := d.Cells[n.Pins[0].Cell]
		if c.Macro.Pins[n.Pins[0].Pin].Name != "Z" {
			t.Fatalf("net %s driver pin is %q", n.Name, c.Macro.Pins[n.Pins[0].Pin].Name)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := Suite(0.02)[4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = geom.Pt // keep geom imported for future fixture edits

// TestLibraryIsGeneratesLibrary pins what a reader of a written circuit
// relies on: Library returns the technology and macros Generate builds the
// circuit from, so a DEF of the circuit parses against it.
func TestLibraryIsGeneratesLibrary(t *testing.T) {
	for _, spec := range []Spec{Suite(0.004)[0], Suite(0.004)[6]} {
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		tc, macros, err := Library(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc, d.Tech) || !reflect.DeepEqual(macros, d.Macros) {
			t.Errorf("%s: Library differs from the generated design's library", spec.Name)
		}
	}
	if _, _, err := Library(Spec{Name: "bad", Node: "n7"}); err == nil {
		t.Error("Library accepted an unknown node")
	}
}
