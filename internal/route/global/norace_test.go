//go:build !race

package global

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so pooled scratch reallocates.
const raceEnabled = false
