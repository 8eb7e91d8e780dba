package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/eco"
)

// Exact result cache.
//
// Job outputs are a pure function of the spec: the flow is deterministic
// for a fixed (design, K, gamma, seed, budgets) tuple, which is exactly
// what the crash-chaos byte-identity suites prove. That purity makes an
// exact cache correct by construction — two submissions with the same
// canonical spec hash MUST produce byte-identical artifacts, so serving
// the first run's artifacts for the second is indistinguishable from
// recomputing them, minus the work. The cache is the first rung of the
// load-shed ladder: a hit consumes no queue slot, no worker, no lease.
//
// Layout: <data-dir>/cache/<hash>/{out.def,out.guide,result.json}, where
// hash is the hex SHA-256 of the canonical spec JSON, plus ckpt/ in a CR&P
// job's entry. Population is staged in a temp directory and published by a
// single directory rename, so concurrent nodes racing to populate the same
// hash are safe (first rename wins, losers discard) and a reader never sees
// a partial entry.

const cacheDirName = "cache"

// cacheArtifacts are the files one completed job contributes, in the
// order they are copied. result.json is written last during the run and
// checked first on lookup, so its presence implies the rest.
var cacheArtifacts = []string{"out.def", "out.guide", "result.json"}

// ckptDirName is a job directory's checkpoint directory. A done CR&P job
// keeps it, since its newest checkpoint is the base of every ECO job that
// names it as parent; so a CR&P job's cache entry carries that checkpoint
// (checkpoint.CopyLatest) under the same name, and a job served from the
// entry holds it like a job that ran. An ECO job is never a parent, and
// its entry carries none.
const ckptDirName = "ckpt"

// specHash computes the canonical cache key of a spec. Tenant is cleared —
// identity of the submitter does not change the answer — while every
// field that feeds flow.Config, including AdmissionDegradations (a
// shed-degraded spec is a different computation), stays in the hash.
func specHash(sp Spec) (string, error) {
	canon := sp
	canon.Tenant = ""
	data, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("service: hashing spec: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// jobHash computes the canonical cache key of any spec. Plain jobs hash
// their canonical spec JSON; ECO jobs chain through ecoJobHash so the key
// names the parent's content, not its job id.
func jobHash(sp Spec, dataDir string) (string, error) {
	if sp.isECO() {
		return ecoJobHash(sp, dataDir)
	}
	return specHash(sp)
}

// ecoKeyBase names an ECO job's starting state, the parent's final
// checkpoint, in every ECO cache key: an entry keyed without it, or with
// another base, is never served.
const ecoKeyBase = "parent-final-checkpoint"

// ecoJobHash is the ECO cache key: the spec with Tenant cleared,
// ParentJob replaced by the parent's canonical hash (admission only accepts
// fresh parents), and ECODelta replaced by the delta's canonical JSON,
// hashed together with ecoKeyBase. Two ECO submissions naming different
// parent job ids that ran byte-identical computations therefore share one
// entry, and any change to the parent's spec or the edit changes the key.
// The parent's final checkpoint is a function of its spec like its
// outputs, so the key stays exact.
func ecoJobHash(sp Spec, dataDir string) (string, error) {
	parentSpec, err := loadSpec(filepath.Join(dataDir, sp.ParentJob))
	if err != nil {
		return "", fmt.Errorf("service: loading eco parent spec: %w", err)
	}
	parentHash, err := specHash(*parentSpec)
	if err != nil {
		return "", err
	}
	dl, err := eco.Parse(sp.ECODelta)
	if err != nil {
		return "", err
	}
	canon, err := dl.Canonical()
	if err != nil {
		return "", err
	}
	key := sp
	key.Tenant = ""
	key.ParentJob = parentHash
	key.ECODelta = canon
	data, err := json.Marshal(struct {
		Base string `json:"base"`
		Spec Spec   `json:"spec"`
	}{ecoKeyBase, key})
	if err != nil {
		return "", fmt.Errorf("service: hashing eco spec: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// cacheEntryDir returns the published entry directory for hash, or "" when
// the cache holds no complete entry. withCkpt asks for a CR&P job's entry,
// which is complete only with its checkpoint: an entry without one is
// never served.
func cacheEntryDir(cacheRoot, hash string, withCkpt bool) string {
	if cacheRoot == "" || hash == "" {
		return ""
	}
	dir := filepath.Join(cacheRoot, hash)
	if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
		return ""
	}
	if withCkpt && !hasCheckpoint(dir) {
		return ""
	}
	return dir
}

// hasCheckpoint reports whether an entry carries a checkpoint directory.
func hasCheckpoint(entryDir string) bool {
	_, err := os.Stat(filepath.Join(entryDir, ckptDirName))
	return err == nil
}

// populateCache publishes a completed job's artifacts under hash, with its
// newest checkpoint when withCkpt (a CR&P job; one that has none is not
// cached). Best effort: the job has already committed its own outputs, so
// a cache miss tomorrow only costs recomputation. The guard (the writer's
// lease fence) runs immediately before the publishing rename — a zombie
// ex-owner stages a full entry and then fails here, leaving nothing
// visible.
func populateCache(cacheRoot, hash, jobDir string, withCkpt bool, guard func() error) error {
	if cacheRoot == "" || hash == "" {
		return nil
	}
	final := filepath.Join(cacheRoot, hash)
	if _, err := os.Stat(final); err == nil {
		if !withCkpt || hasCheckpoint(final) {
			return nil // already populated (by us or a peer)
		}
		// An entry without the checkpoint is never served; replace it.
		if err := os.RemoveAll(final); err != nil {
			return err
		}
	}
	stage, err := os.MkdirTemp(cacheRoot, ".stage-"+hash[:12]+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stage)
	if withCkpt {
		if err := checkpoint.CopyLatest(filepath.Join(jobDir, ckptDirName), filepath.Join(stage, ckptDirName)); err != nil {
			return err
		}
	}
	for _, name := range cacheArtifacts {
		if err := copyFile(filepath.Join(jobDir, name), filepath.Join(stage, name)); err != nil {
			return err
		}
	}
	if guard != nil {
		if err := guard(); err != nil {
			return err
		}
	}
	if err := os.Rename(stage, final); err != nil {
		if _, serr := os.Stat(final); serr == nil {
			return nil // lost the publish race; identical bytes either way
		}
		return err
	}
	return nil
}

// copyCachedArtifacts materializes a cache entry's artifacts into a job
// directory, with its checkpoint when withCkpt, result.json last so a
// watcher that sees the result sees the outputs too.
func copyCachedArtifacts(entryDir, jobDir string, withCkpt bool) error {
	if withCkpt {
		if err := checkpoint.CopyLatest(filepath.Join(entryDir, ckptDirName), filepath.Join(jobDir, ckptDirName)); err != nil {
			return err
		}
	}
	for _, name := range cacheArtifacts {
		if err := copyFile(filepath.Join(entryDir, name), filepath.Join(jobDir, name)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o666)
}

// touchCacheEntry bumps an entry's recency stamp (result.json mtime) so
// LRU eviction spares recently served entries. Best effort.
func touchCacheEntry(entryDir string) {
	now := time.Now()
	os.Chtimes(filepath.Join(entryDir, "result.json"), now, now)
}

// cacheEntry is one published entry's eviction bookkeeping.
type cacheEntry struct {
	dir   string
	mtime time.Time
	bytes int64
}

// evictCache enforces the cache's entry-count and byte-size bounds
// (0 = unbounded) by removing least-recently-used entries — recency is the
// result.json mtime, which population sets and every cache hit touches.
// Staging directories are skipped; a malformed entry (no result.json)
// counts as infinitely old and goes first. Returns how many entries were
// evicted.
func evictCache(cacheRoot string, maxEntries int, maxBytes int64) int {
	if cacheRoot == "" || (maxEntries <= 0 && maxBytes <= 0) {
		return 0
	}
	ents, err := os.ReadDir(cacheRoot)
	if err != nil {
		return 0
	}
	var entries []cacheEntry
	var total int64
	for _, ent := range ents {
		if !ent.IsDir() || strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		dir := filepath.Join(cacheRoot, ent.Name())
		e := cacheEntry{dir: dir}
		if fi, err := os.Stat(filepath.Join(dir, "result.json")); err == nil {
			e.mtime = fi.ModTime()
		}
		filepath.WalkDir(dir, func(_ string, f fs.DirEntry, err error) error {
			if err == nil && !f.IsDir() {
				if fi, err := f.Info(); err == nil {
					e.bytes += fi.Size()
				}
			}
			return nil // an unreadable file counts as empty
		})
		total += e.bytes
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		if !entries[a].mtime.Equal(entries[b].mtime) {
			return entries[a].mtime.Before(entries[b].mtime)
		}
		return entries[a].dir < entries[b].dir
	})
	evicted := 0
	for _, e := range entries {
		over := (maxEntries > 0 && len(entries)-evicted > maxEntries) ||
			(maxBytes > 0 && total > maxBytes)
		if !over {
			break
		}
		if err := os.RemoveAll(e.dir); err != nil {
			continue
		}
		total -= e.bytes
		evicted++
	}
	return evicted
}
