package lefdef

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// Layer micro-benchmarks of the file interface on crp_test7 at scale 0.01
// (~1,700 cells), the size of the ECO benchmark's parent design, with the
// guides of a full global route.

type ioFixture struct {
	d        *db.Design
	g        *grid.Grid
	routes   []*global.Route
	lef, def []byte
}

var (
	ioFixtureOnce sync.Once
	ioFixtureVal  ioFixture
	ioFixtureErr  error
)

func benchFixture(b *testing.B) ioFixture {
	ioFixtureOnce.Do(func() {
		d, err := ispd.Generate(ispd.Suite(0.01)[6])
		if err != nil {
			ioFixtureErr = err
			return
		}
		g := grid.New(d, grid.DefaultParams())
		r := global.New(d, g, global.DefaultConfig())
		r.RouteAll()
		var lef, def bytes.Buffer
		if err := WriteLEF(&lef, d.Tech, d.Macros); err != nil {
			ioFixtureErr = err
			return
		}
		if err := WriteDEF(&def, d); err != nil {
			ioFixtureErr = err
			return
		}
		ioFixtureVal = ioFixture{d: d, g: g, routes: r.Routes, lef: lef.Bytes(), def: def.Bytes()}
	})
	if ioFixtureErr != nil {
		b.Fatal(ioFixtureErr)
	}
	return ioFixtureVal
}

func BenchmarkParseLEF(b *testing.B) {
	fx := benchFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(fx.lef)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseLEF(bytes.NewReader(fx.lef)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDEF(b *testing.B) {
	fx := benchFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(fx.def)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDEF(bytes.NewReader(fx.def), fx.d.Tech, fx.d.Macros); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteDEF(b *testing.B) {
	fx := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDEF(io.Discard, fx.d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteGuides(b *testing.B) {
	fx := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteGuides(io.Discard, fx.d, fx.g, fx.routes); err != nil {
			b.Fatal(err)
		}
	}
}
