package global

import (
	"sync"

	"github.com/crp-eda/crp/internal/geom"
	"github.com/crp-eda/crp/internal/steiner"
)

// The estimation fast path. CR&P's Algorithm 3 prices every candidate of
// every critical cell with EstimateTerminalCost, and Fig. 3 shows that phase
// (ECC) dominating runtime. Two structural facts make it cacheable:
//
//  1. The grid's congestion prices are frozen for the whole estimation
//     phase — nothing calls AddWire/AddVia between candidates — so any
//     two-pin pattern cost and any whole-net estimate computed during the
//     phase stays valid until the grid's demand epoch advances.
//  2. Candidates of the same critical cell share almost all of their
//     terminal sets: conflict nets whose cells did not move produce the
//     same GCell lists, and distinct legal positions frequently fall into
//     the same GCell.
//
// The caches below exploit both. They are sharded (workers hit them
// concurrently) and validated against grid.Grid.Epoch(), so rip-up/reroute
// in the Update Database phase self-invalidates everything with no
// explicit flush protocol. Cached values are the *identical* floats a
// fresh computation would produce — hits change speed, never results.

// estShardCount shards the caches to keep worker contention negligible.
// Must be a power of two.
const estShardCount = 64

// mix64 is a SplitMix64-style finaliser used to spread keys over shards.
func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0x9E3779B97F4A7C15
	k ^= k >> 29
	return k
}

// segKey packs an ordered GCell pair into a cache key. GCell coordinates
// are bounded by the lattice dimensions (far below 2^16). The pair is kept
// ordered: patternRoute's Z-bend samples are computed with truncating
// integer division from the first endpoint, so (a,b) and (b,a) can price
// differently and must not share an entry.
func segKey(a, b geom.Point) uint64 {
	return uint64(uint16(a.X))<<48 | uint64(uint16(a.Y))<<32 |
		uint64(uint16(b.X))<<16 | uint64(uint16(b.Y))
}

// segShard is one shard of the two-pin segment cost cache.
type segShard struct {
	mu    sync.Mutex
	epoch uint64
	m     map[uint64]float64
}

// segCache memoises segmentEstimate results keyed by packed GCell pairs.
type segCache struct {
	shards [estShardCount]segShard
}

func (c *segCache) get(key, epoch uint64) (float64, bool) {
	s := &c.shards[mix64(key)&(estShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		clear(s.m)
		s.epoch = epoch
		return 0, false
	}
	v, ok := s.m[key]
	return v, ok
}

func (c *segCache) put(key, epoch uint64, v float64) {
	s := &c.shards[mix64(key)&(estShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		clear(s.m)
		s.epoch = epoch
	}
	if s.m == nil {
		s.m = make(map[uint64]float64, 256)
	}
	s.m[key] = v
}

// treeShard is one shard of the Steiner topology cache.
type treeShard struct {
	mu    sync.Mutex
	epoch uint64
	m     map[string]steiner.Tree
}

// treeCache memoises steiner.Build results keyed by the packed, ordered,
// deduplicated GCell terminal list. Topologies depend only on the terminal
// list (never on congestion), but entries are still epoch-scoped so the
// cache cannot grow without bound across CR&P iterations: each Update
// Database phase advances the epoch and resets it.
type treeCache struct {
	shards [estShardCount]treeShard
}

// treeKey appends gcells to buf in a fixed 4-bytes-per-terminal encoding.
// The encoding preserves order — steiner.Build is order-sensitive (Hanan
// candidates and MST ties follow input order), and cache hits must return
// exactly the tree a fresh Build would.
func treeKey(buf []byte, gcells []geom.Point) []byte {
	for _, p := range gcells {
		buf = append(buf, byte(p.X), byte(p.X>>8), byte(p.Y), byte(p.Y>>8))
	}
	return buf
}

// hashBytes is FNV-1a, used only for shard selection.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (c *treeCache) get(key []byte, epoch uint64) (steiner.Tree, bool) {
	s := &c.shards[mix64(hashBytes(key))&(estShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		clear(s.m)
		s.epoch = epoch
		return steiner.Tree{}, false
	}
	v, ok := s.m[string(key)] // no alloc: map lookup special-cases string(b)
	return v, ok
}

func (c *treeCache) put(key []byte, epoch uint64, t steiner.Tree) {
	s := &c.shards[mix64(hashBytes(key))&(estShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		clear(s.m)
		s.epoch = epoch
	}
	if s.m == nil {
		s.m = make(map[string]steiner.Tree, 64)
	}
	s.m[string(key)] = t
}

// estScratch is the per-call working set of the estimation path. Instances
// are pooled: EstimateTerminalCost runs concurrently on CR&P's worker pool,
// and the pool hands each in-flight call its own buffers without per-call
// allocation.
type estScratch struct {
	gcells []geom.Point  // deduplicated terminal GCells
	key    []byte        // packed tree-cache key
	cands  []junctionSeq // candidate junction sequences of one segment
	runs   []run         // straight runs of one candidate
	dpa    []float64     // rolling DP rows of the layer DP
	dpb    []float64
	arg    []int // best predecessor layer of run i on layer l, at i·NL+l
}

func (r *Router) getScratch() *estScratch {
	s := r.scratch.Get().(*estScratch)
	if cap(s.dpa) < r.G.NL {
		s.dpa = make([]float64, r.G.NL)
		s.dpb = make([]float64, r.G.NL)
		s.arg = make([]int, maxRuns*r.G.NL)
	}
	return s
}

func (r *Router) putScratch(s *estScratch) { r.scratch.Put(s) }

// cachedSteiner returns the Steiner topology for the ordered, deduplicated
// terminal list, building and memoising it on a miss. The returned tree is
// shared and must be treated as read-only.
func (r *Router) cachedSteiner(gcells []geom.Point, s *estScratch) steiner.Tree {
	if r.Cfg.DisableEstimateCache {
		return steiner.Build(gcells)
	}
	epoch := r.G.Epoch()
	s.key = treeKey(s.key[:0], gcells)
	if t, ok := r.trees.get(s.key, epoch); ok {
		return t
	}
	// Built outside the shard lock: a racing duplicate build produces an
	// identical tree (steiner.Build is deterministic), so whichever store
	// wins is indistinguishable.
	t := steiner.Build(gcells)
	r.trees.put(s.key, epoch, t)
	return t
}

// segmentEstimate prices the two-pin segment (a,b) the way Algorithm 3
// does — cheapest L/Z pattern with DP layer assignment, +Inf when no
// pattern is realisable — consulting the epoch-validated cache first.
func (r *Router) segmentEstimate(a, b geom.Point, s *estScratch) float64 {
	if r.Cfg.DisableEstimateCache {
		v, _ := r.patternCost(a, b, s)
		return v
	}
	epoch := r.G.Epoch()
	key := segKey(a, b)
	if v, ok := r.segs.get(key, epoch); ok {
		return v
	}
	v, _ := r.patternCost(a, b, s)
	r.segs.put(key, epoch, v)
	return v
}
