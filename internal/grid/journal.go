package grid

import "fmt"

// EdgeKey identifies one mutable demand entry in the grid's dense layout:
// for wire usage, the planar edge leaving GCell I on layer L; for vias, the
// stack between layers L and L+1 at GCell I. Wire and via keys live in
// separate maps, so the two spaces never collide.
type EdgeKey struct {
	L int32 // layer (wire) or lower layer of the pair (via)
	I int32 // dense GCell index x + y*NX
}

// Journal accumulates the demand deltas applied to a grid while attached
// (see AttachJournal): every AddWire/AddVia records its per-edge delta and
// bumps Mutations. Because the demand arrays are private and AddWire/AddVia
// are their only writers, an attached journal provably sees every mutation —
// the transactional view layer uses that to check an iteration's demand diff
// against its route swaps in O(Δ) instead of re-scanning the whole grid, and
// to detect out-of-band mutation by epoch arithmetic (each recorded mutation
// advances the epoch by exactly one).
type Journal struct {
	Wire map[EdgeKey]float64
	Vias map[EdgeKey]float64
	// Mutations counts every AddWire/AddVia recorded.
	Mutations uint64
}

// NewJournal returns an empty journal ready to attach.
func NewJournal() *Journal {
	return &Journal{Wire: map[EdgeKey]float64{}, Vias: map[EdgeKey]float64{}}
}

// AttachJournal starts recording every demand mutation into j. Exactly one
// journal may be attached at a time; the transactional layer owns the
// attach/detach pairing, so a double attach is an invariant bug worth a
// loud failure.
func (g *Grid) AttachJournal(j *Journal) {
	if g.journal != nil {
		panic("grid: a demand journal is already attached")
	}
	g.journal = j
}

// DetachJournal stops recording and returns the attached journal (nil if
// none was attached).
func (g *Grid) DetachJournal() *Journal {
	j := g.journal
	g.journal = nil
	return j
}

// WireKey returns the journal key of the planar edge leaving (x,y) on layer l.
func (g *Grid) WireKey(x, y, l int) EdgeKey {
	return EdgeKey{L: int32(l), I: int32(g.idx(x, y))}
}

// ViaKey returns the journal key of the via stack between layers l and l+1
// at GCell (x,y).
func (g *Grid) ViaKey(x, y, l int) EdgeKey {
	return EdgeKey{L: int32(l), I: int32(g.idx(x, y))}
}

// String renders the key for invariant-violation messages.
func (k EdgeKey) String() string { return fmt.Sprintf("(l%d,i%d)", k.L, k.I) }
