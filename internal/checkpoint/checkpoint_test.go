package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/route/global"
)

// sample builds a representative snapshot: moved cells, flipped orients,
// routed and unrouted nets, non-trivial demand, a degradation log.
func sample() *Snapshot {
	return &Snapshot{
		DesignName: "crp_test1",
		Cells:      3,
		Nets:       2,
		K:          5,
		Seed:       -7,
		Iter:       2,
		RNGDraws:   123,
		TotalMoved: 4,
		Pos:        []geom.Point{geom.Pt(10, 20), geom.Pt(-5, 0), geom.Pt(7, 7)},
		Orient:     []db.Orient{db.N, db.FS, db.N},
		Critical:   []bool{true, false, true},
		Moved:      []bool{false, false, true},
		Routes: []*global.Route{
			nil,
			{
				NetID: 1,
				Wires: []geom.Point3{geom.Pt3(0, 0, 1), geom.Pt3(1, 0, 1)},
				Vias:  []geom.Point3{geom.Pt3(0, 0, 0)},
			},
		},
		Demand: grid.DemandState{
			NX: 2, NY: 1, NL: 2,
			Wire: [][]float64{{0, 0.5}, {1.25, 0}},
			Vias: [][]float64{{2, 0}},
		},
		Degradations: []Degradation{
			{Stage: "gr", Kind: "stage-deadline", Detail: "stopped after 3 nets"},
		},
	}
}

func encodeToBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(bytes.NewReader(encodeToBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", s, got)
	}
}

func TestEncodeRejectsInconsistentLengths(t *testing.T) {
	s := sample()
	s.Pos = s.Pos[:1]
	if err := Encode(&bytes.Buffer{}, s); err == nil {
		t.Fatal("mismatched Pos length must be refused")
	}
	s = sample()
	s.Routes = nil
	if err := Encode(&bytes.Buffer{}, s); err == nil {
		t.Fatal("mismatched Routes length must be refused")
	}
}

func TestDecodeDetectsEveryFlippedByte(t *testing.T) {
	data := encodeToBytes(t, sample())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flipped without detection", i)
		}
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	data := encodeToBytes(t, sample())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	data := encodeToBytes(t, sample())
	data[len(magic)] = 99
	_, err := Decode(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestManagerSaveLatestRoundTrip(t *testing.T) {
	m, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	for iter := 0; iter <= 2; iter++ {
		s.Iter = iter
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	got, notes, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 0 {
		t.Fatalf("clean directory produced recovery notes: %v", notes)
	}
	if got.Iter != 2 {
		t.Fatalf("Latest returned iter %d, want 2", got.Iter)
	}
}

func TestManagerPrunesToKeep(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	for iter := 0; iter < 5; iter++ {
		s.Iter = iter
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d checkpoint files retained, want 2: %v", len(files), files)
	}
}

func TestManagerFallsBackAcrossCorruptLatest(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	for iter := 0; iter < 3; iter++ {
		s.Iter = iter
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest checkpoint mid-file.
	entries, err := m.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, entries[len(entries)-1].File)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	got, notes, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 1 {
		t.Fatalf("fallback returned iter %d, want 1", got.Iter)
	}
	if len(notes) == 0 {
		t.Fatal("fallback across a torn checkpoint must leave a recovery note")
	}
}

func TestManagerSurvivesTornManifest(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	for iter := 0; iter < 2; iter++ {
		s.Iter = iter
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the manifest's last line (lost its CRC suffix).
	mf := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mf, data[:len(data)-12], 0o666); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	// The torn line is ignored; the intact line (iter 0) still resolves.
	if got.Iter != 0 {
		t.Fatalf("torn manifest resolved to iter %d, want 0", got.Iter)
	}
}

func TestManagerScansWhenManifestMissing(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	s.Iter = 4
	if err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	got, notes, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 4 {
		t.Fatalf("scan recovered iter %d, want 4", got.Iter)
	}
	if len(notes) == 0 {
		t.Fatal("manifest-less recovery must note the scan")
	}
}

func TestEmptyDirReturnsErrNoCheckpoint(t *testing.T) {
	m, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	if err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	// A second manager (the restarted process) must not reuse sequence
	// numbers, or a torn write could shadow a committed checkpoint.
	m2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Iter = 9
	if err := m2.Save(s); err != nil {
		t.Fatal(err)
	}
	got, _, err := m2.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 9 {
		t.Fatalf("reopened manager resolved iter %d, want 9", got.Iter)
	}
}

func TestReadOnlyManagerCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := OpenReadOnly(dir)
	if _, _, err := m.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing directory: err = %v, want ErrNoCheckpoint", err)
	}
	if err := m.Save(sample()); err == nil {
		t.Fatal("a read-only manager saved")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only manager left %s behind (stat err %v)", dir, err)
	}
}

func TestCopyLatestCarriesOnlyTheNewest(t *testing.T) {
	root := t.TempDir()
	src, dst := filepath.Join(root, "src"), filepath.Join(root, "dst")
	if err := CopyLatest(src, dst); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty source: err = %v, want ErrNoCheckpoint", err)
	}
	m, err := Open(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	for iter := 0; iter < 3; iter++ {
		s.Iter = iter
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := CopyLatest(src, dst); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dst, "ckpt-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("copy holds %d checkpoint files, want 1: %v", len(files), files)
	}
	got, notes, err := OpenReadOnly(dst).Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 2 || len(notes) != 0 {
		t.Fatalf("copy resolved iter %d with notes %v, want iter 2 and none", got.Iter, notes)
	}
}
