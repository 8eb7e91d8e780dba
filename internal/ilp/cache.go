package ilp

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// SolveCache memoises certified Solve results keyed by the exact canonical
// encoding of the model (costs, constraints) plus the semantically relevant
// option flags. It is the "warm start across CR&P iterations" mechanism:
// the legalizer and selection steps rebuild structurally identical models
// every iteration, and an exact-key hit returns precisely the Solution a
// cold deterministic solve would compute — so cached and uncached runs are
// bit-identical by construction.
//
// The cache is only consulted for budget-less solves (MaxNodes == 0 and
// TimeLimit == 0): budgeted outcomes depend on wall-clock and node order,
// and letting them leak across calls would break the engine's
// checkpoint/resume bit-identity contract.
//
// A note on scope: under best-first branch & bound the first incumbent
// found is already optimal, so replaying a previous incumbent as a pruning
// bound cannot skip any node the search would otherwise expand — classic
// warm-start bounds are a no-op here. Whole-solution memoization is the
// form of warm starting that actually pays off for this solver.
type SolveCache struct {
	shards   [solveCacheShards]solveCacheShard
	perShard int
	hits     atomic.Int64
	misses   atomic.Int64
}

const solveCacheShards = 16

type solveCacheShard struct {
	mu sync.Mutex
	m  map[string]Solution
}

// NewSolveCache returns a cache holding roughly capacity entries; capacity
// <= 0 selects a default. When a shard fills up it is cleared wholesale —
// eviction cannot affect results, only hit rate, so the cheapest policy
// wins.
func NewSolveCache(capacity int) *SolveCache {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	c := &SolveCache{perShard: (capacity + solveCacheShards - 1) / solveCacheShards}
	if c.perShard < 1 {
		c.perShard = 1
	}
	return c
}

// Stats reports cumulative hit/miss counters.
func (c *SolveCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// fnvHash is FNV-1a over the key bytes; computed once per Solve and passed
// to both lookup and store so a miss does not hash the key twice.
func fnvHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *SolveCache) lookup(key []byte, h uint64) (Solution, bool) {
	s := &c.shards[h%solveCacheShards]
	s.mu.Lock()
	sol, ok := s.m[string(key)] // no-alloc map probe
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Solution{}, false
	}
	c.hits.Add(1)
	// Values is returned to callers that may hold it across solves; hand
	// out a private copy.
	if sol.Values != nil {
		sol.Values = append([]int8(nil), sol.Values...)
	}
	return sol, true
}

func (c *SolveCache) store(key []byte, h uint64, sol Solution) {
	if sol.Values != nil {
		sol.Values = append([]int8(nil), sol.Values...)
	}
	s := &c.shards[h%solveCacheShards]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]Solution)
	} else if len(s.m) >= c.perShard {
		clear(s.m)
	}
	s.m[string(key)] = sol
	s.mu.Unlock()
}

// appendCacheKey canonically encodes the model and the option flags that
// change observable Solve output (component counts, node counts) into b.
// Variable names are excluded: they never influence the solve.
func (m *Model) appendCacheKey(b []byte, opt Options) []byte {
	n := len(m.costs)
	b = binary.AppendUvarint(b, uint64(n))
	for _, c := range m.costs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	b = binary.AppendUvarint(b, uint64(len(m.cons)))
	for _, c := range m.cons {
		b = append(b, byte(c.Op))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.RHS))
		b = binary.AppendUvarint(b, uint64(len(c.Terms)))
		for _, t := range c.Terms {
			b = binary.AppendUvarint(b, uint64(t.Var))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Coef))
		}
	}
	var flags byte
	if opt.DisableDecomposition {
		flags |= 1
	}
	if opt.disablePresolve {
		flags |= 2
	}
	b = append(b, flags)
	return b
}
