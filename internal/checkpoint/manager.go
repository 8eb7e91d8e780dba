package checkpoint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/crp-eda/crp/internal/atomicio"
)

// ErrNoCheckpoint is returned by Latest when the directory holds no usable
// checkpoint — either none was ever written or every candidate is corrupt.
// Callers (cmd/crp -resume) treat it as "start fresh".
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint")

// manifestName is the manifest file inside a checkpoint directory. Each line
// records one committed checkpoint and carries its own CRC-32, so a line
// torn mid-write (the manifest is rewritten atomically, but an older
// non-atomic filesystem or a partial copy can still tear it) is skipped
// rather than trusted.
const manifestName = "MANIFEST"

// entry is one manifest line: a committed checkpoint file and the payload
// CRC-64 recorded at write time, re-verified by Decode on load.
type entry struct {
	Seq  int
	Iter int
	File string
	Size int64
}

// Manager owns a checkpoint directory: atomic snapshot writes, a
// torn-write-tolerant manifest, newest-first recovery with fallback across
// corrupt files, and pruning to a bounded number of retained checkpoints.
type Manager struct {
	dir   string
	keep  int
	seq   int
	guard func() error
	// readOnly marks a manager from OpenReadOnly: it writes nothing, and
	// its first Latest result is kept in loaded.
	readOnly bool
	loaded   *latestResult
}

// latestResult is one Latest call's answer.
type latestResult struct {
	snap  *Snapshot
	notes []string
	err   error
}

// errReadOnly is Save's answer on a manager from OpenReadOnly.
var errReadOnly = errors.New("checkpoint: read-only manager cannot save")

// Open prepares dir (creating it if needed) and positions the sequence
// counter after the newest recorded checkpoint. keep <= 0 retains the
// default two checkpoints: the newest plus one fallback in case the newest
// turns out to be torn.
func Open(dir string, keep int) (*Manager, error) {
	if keep <= 0 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m := &Manager{dir: dir, keep: keep}
	entries, _ := m.readManifest()
	for _, e := range entries {
		if e.Seq > m.seq {
			m.seq = e.Seq
		}
	}
	// Files orphaned by a crash between checkpoint rename and manifest
	// rename may carry a higher sequence number than the manifest knows;
	// skip past them so a new Save never reuses their names.
	if files, err := os.ReadDir(dir); err == nil {
		for _, f := range files {
			var n int
			if _, err := fmt.Sscanf(f.Name(), "ckpt-%d.bin", &n); err == nil && n > m.seq {
				m.seq = n
			}
		}
	}
	return m, nil
}

// OpenReadOnly returns a manager that only reads dir: it creates nothing,
// not even dir, and its Save fails. A missing dir holds no checkpoint. It
// is the read path for a directory another writer owns: a running
// attempt's, or a finished job's that later jobs read from. It loads at
// most once: every Latest returns the first call's answer, so a caller
// that inspects the newest snapshot and then hands the manager on decodes
// it once. Callers must not modify the shared snapshot.
func OpenReadOnly(dir string) *Manager { return &Manager{dir: dir, readOnly: true} }

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// SetGuard installs a publication guard on every durable write this manager
// performs: the snapshot file and the manifest both commit through
// atomicio.CommitIf(guard), so a writer whose authority has lapsed — a job
// daemon whose lease was stolen — cannot rename a stale snapshot or
// manifest into a directory another node now owns. A failing guard surfaces
// as a Save error, which the flow layer records as a counted
// "checkpoint-write-failed" degradation rather than a crash. Nil clears.
func (m *Manager) SetGuard(g func() error) { m.guard = g }

// Save durably commits a snapshot: the checkpoint file is written to a temp
// name, fsynced and renamed into place, and only then is the manifest
// rewritten (also atomically) to reference it. A crash between the two
// renames leaves an orphaned-but-valid checkpoint file the manifest does not
// mention; recovery then resumes from the previous checkpoint, which is
// safe because replaying an iteration is deterministic.
func (m *Manager) Save(s *Snapshot) error {
	if m.readOnly {
		return errReadOnly
	}
	m.seq++
	name := fmt.Sprintf("ckpt-%d.bin", m.seq)
	var size int64
	err := atomicio.WriteFileGuarded(filepath.Join(m.dir, name), m.guard, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		if err := Encode(cw, s); err != nil {
			return err
		}
		size = cw.n
		return nil
	})
	if err != nil {
		m.seq--
		return err
	}
	entries, _ := m.readManifest()
	entries = append(entries, entry{Seq: m.seq, Iter: s.Iter, File: name, Size: size})
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	if len(entries) > m.keep {
		entries = entries[len(entries)-m.keep:]
	}
	if err := m.writeManifest(entries); err != nil {
		return err
	}
	m.prune(entries)
	return nil
}

// Latest loads the newest usable checkpoint. Corrupt or missing candidates
// are skipped oldest-last with a human-readable note appended per skip; the
// notes are returned alongside the snapshot so the flow can record them as
// degradations. ErrNoCheckpoint means the directory is empty or nothing
// survived verification.
func (m *Manager) Latest() (*Snapshot, []string, error) {
	if m.readOnly {
		if m.loaded == nil {
			snap, notes, err := m.latest()
			m.loaded = &latestResult{snap, notes, err}
		}
		return m.loaded.snap, m.loaded.notes, m.loaded.err
	}
	return m.latest()
}

func (m *Manager) latest() (*Snapshot, []string, error) {
	entries, notes := m.candidates()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		s, err := m.load(e)
		if err == nil {
			return s, notes, nil
		}
		notes = append(notes, fmt.Sprintf("checkpoint %s (iter %d) unusable: %v", e.File, e.Iter, err))
	}
	return nil, notes, ErrNoCheckpoint
}

// candidates lists the checkpoints Latest tries, oldest first: the
// manifest's entries, or a directory scan when the manifest is unreadable
// or empty, which the returned note records.
func (m *Manager) candidates() ([]entry, []string) {
	entries, err := m.readManifest()
	if err != nil {
		return m.scan(), []string{fmt.Sprintf("manifest unreadable (%v); scanning directory", err)}
	}
	if len(entries) == 0 {
		if scanned := m.scan(); len(scanned) > 0 {
			return scanned, []string{"manifest empty but checkpoint files present; scanning directory"}
		}
	}
	return entries, nil
}

// CopyLatest makes dst, which it creates, a checkpoint directory holding one
// checkpoint: the newest one src records, copied byte for byte, and a
// manifest naming only it. Nothing is decoded, so a torn newest checkpoint
// is copied as it is, and the reader that loads it refuses it.
// ErrNoCheckpoint means src records none.
func CopyLatest(src, dst string) error {
	entries, _ := OpenReadOnly(src).candidates()
	if len(entries) == 0 {
		return ErrNoCheckpoint
	}
	e := entries[len(entries)-1]
	data, err := os.ReadFile(filepath.Join(src, e.File))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The file before the manifest: a manifest never names a missing file.
	if err := os.WriteFile(filepath.Join(dst, e.File), data, 0o666); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dst, manifestName), []byte(manifestLine(e)+"\n"), 0o666); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func (m *Manager) load(e entry) (*Snapshot, error) {
	f, err := os.Open(filepath.Join(m.dir, e.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if e.Size > 0 {
		if fi, err := f.Stat(); err == nil && fi.Size() != e.Size {
			return nil, corrupt("size %d, manifest recorded %d", fi.Size(), e.Size)
		}
	}
	return Decode(bufio.NewReader(f))
}

// scan rebuilds an entry list from directory contents when the manifest is
// unusable. Iter and Size are unknown (zero) — Decode still verifies each
// candidate's checksum before it is trusted.
func (m *Manager) scan() []entry {
	files, err := os.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	var entries []entry
	for _, f := range files {
		var n int
		if _, err := fmt.Sscanf(f.Name(), "ckpt-%d.bin", &n); err == nil {
			entries = append(entries, entry{Seq: n, File: f.Name()})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return entries
}

// manifest line: "v1 <seq> <iter> <size> <file> #<crc32-of-preceding-text>"
func manifestLine(e entry) string {
	body := fmt.Sprintf("v1 %d %d %d %s", e.Seq, e.Iter, e.Size, e.File)
	return fmt.Sprintf("%s #%08x", body, crc32.ChecksumIEEE([]byte(body)))
}

func parseManifestLine(line string) (entry, bool) {
	body, sum, ok := strings.Cut(line, " #")
	if !ok {
		return entry{}, false
	}
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil || crc32.ChecksumIEEE([]byte(body)) != uint32(want) {
		return entry{}, false
	}
	f := strings.Fields(body)
	if len(f) != 5 || f[0] != "v1" {
		return entry{}, false
	}
	var e entry
	if e.Seq, err = strconv.Atoi(f[1]); err != nil {
		return entry{}, false
	}
	if e.Iter, err = strconv.Atoi(f[2]); err != nil {
		return entry{}, false
	}
	if e.Size, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return entry{}, false
	}
	e.File = f[4]
	return e, true
}

// readManifest returns the valid entries in sequence order. Lines that fail
// their CRC are skipped silently here — Latest reports the consequences.
// A missing manifest is an empty (not error) result.
func (m *Manager) readManifest() ([]entry, error) {
	data, err := os.ReadFile(filepath.Join(m.dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var entries []entry
	for _, line := range bytes.Split(data, []byte("\n")) {
		if e, ok := parseManifestLine(strings.TrimSpace(string(line))); ok {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return entries, nil
}

func (m *Manager) writeManifest(entries []entry) error {
	return atomicio.WriteFileGuarded(filepath.Join(m.dir, manifestName), m.guard, func(w io.Writer) error {
		for _, e := range entries {
			if _, err := fmt.Fprintln(w, manifestLine(e)); err != nil {
				return err
			}
		}
		return nil
	})
}

// prune removes checkpoint files no longer referenced by the manifest.
// Removal failures are ignored: a stale file costs disk, not correctness.
func (m *Manager) prune(keep []entry) {
	live := make(map[string]bool, len(keep))
	for _, e := range keep {
		live[e.File] = true
	}
	files, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, f := range files {
		var n int
		if _, err := fmt.Sscanf(f.Name(), "ckpt-%d.bin", &n); err == nil && !live[f.Name()] {
			os.Remove(filepath.Join(m.dir, f.Name()))
		}
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
