package crp

import (
	"fmt"
	"math/rand"
)

// countedSource wraps a math/rand source and tallies every value drawn.
// The count is the only thing a checkpoint needs to capture the RNG stream:
// re-seeding and drawing the same number of values restores the exact
// stream position, so a resumed run's Algorithm 1 acceptance draws are
// bit-identical to the uninterrupted run's.
type countedSource struct {
	src   rand.Source
	src64 rand.Source64 // non-nil when src implements Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	s := &countedSource{}
	s.reset(seed)
	return s
}

func (s *countedSource) reset(seed int64) {
	s.src = rand.NewSource(seed)
	s.src64, _ = s.src.(rand.Source64)
	s.draws = 0
}

// Int63 implements rand.Source.
func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64. rand.Rand prefers this method when the
// source provides it, so it must count draws exactly like Int63 — one draw
// per call — for the fast-forward replay to land on the same position.
func (s *countedSource) Uint64() uint64 {
	s.draws++
	if s.src64 != nil {
		return s.src64.Uint64()
	}
	// Fallback mirrors math/rand's own composition for 63-bit sources.
	return uint64(s.src.Int63())>>31 | uint64(s.src.Int63())<<32
}

// Seed implements rand.Source.
func (s *countedSource) Seed(seed int64) { s.reset(seed) }

// State is the engine-internal slice of resumable flow state: everything a
// checkpoint must record beyond the design, grid demand and routes (which
// live in their own packages). Capturing it between iterations and
// restoring it into a freshly built engine over identically restored
// design/grid/route state yields a bit-identical continuation.
type State struct {
	// Iter is the 1-based count of iterations the engine has started (the
	// value Degradation.Iter reports); at an iteration boundary it equals
	// the number of completed iterations.
	Iter int
	// RNGDraws is the number of values drawn from the seeded RNG stream.
	RNGDraws uint64
}

// State snapshots the engine's resumable internal state. Call it only at an
// iteration boundary (never while Iterate is running).
func (e *Engine) State() State {
	return State{Iter: e.iter, RNGDraws: e.src.draws}
}

// RestoreState rewinds a freshly constructed engine to a checkpointed
// State: the iteration counter is set and the RNG stream is re-seeded from
// Cfg.Seed and fast-forwarded draw by draw. Restoring RNGDraws drawn under
// a different seed silently yields a different (still valid) stream, so the
// flow layer validates the seed before calling this.
func (e *Engine) RestoreState(s State) error {
	if s.Iter < 0 {
		return fmt.Errorf("crp: negative iteration counter %d", s.Iter)
	}
	e.iter = s.Iter
	e.src.reset(e.Cfg.Seed)
	for e.src.draws < s.RNGDraws {
		e.src.Int63()
	}
	return nil
}

// Broken reports whether the engine latched an unrecoverable invariant
// violation; the iteration loop that drives Iterate (the checkpointing
// flow's) must stop once it is set.
func (e *Engine) Broken() bool { return e.broken }

// CheckInvariants runs the transactional-iteration invariant check (grid
// demand consistency against committed routes plus placement legality) on
// demand. The resume path runs it before continuing from a checkpoint, so a
// corrupt or mismatched restore is refused rather than iterated upon.
func (e *Engine) CheckInvariants() error { return e.checkInvariants() }
