package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Spans of one root (an op, a set-up, a probe) share Root.
type Span struct {
	ID     int
	Parent int // -1 for a root
	Root   int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	// Alloc is the heap bytes the process allocated while the span was open
	// (all goroutines: concurrent work is attributed to every open span).
	Alloc uint64
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	alloc []uint64 // heap-allocation counter at each span's start
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// Begin opens a span under parent (-1 opens a root) and returns its id.
func (t *Tracer) Begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	root := id
	if parent >= 0 {
		root = t.spans[parent].Root
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Root: root, Name: name, Start: now, End: -1})
	t.alloc = append(t.alloc, a)
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Alloc = a - t.alloc[id]
}

// Add records an already-measured interval as a closed span under parent —
// for boundaries the benchmark observes as events (a job's queue wait, its
// run) rather than as calls it makes. It returns the span's id.
func (t *Tracer) Add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	root := id
	if parent >= 0 {
		root = t.spans[parent].Root
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Root: root, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.alloc = append(t.alloc, 0)
	return id
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns, per span id, the span's duration minus the part of its
// interval that the union of its direct children covers. Children may overlap
// each other (concurrent calls) or stick out of their parent (an event
// observed after the parent closed); overlap is counted once and anything
// outside the parent is clipped off.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// rootSums folds spans into per-root totals keyed by span name: each root's
// summed duration, self time and allocation per name. Roots are identified
// by their own span name (e.g. "op", "setup") so callers can pick which kind
// of root a metric is taken over.
type rootSums struct {
	kind  string
	dur   map[string]time.Duration
	self  map[string]time.Duration
	alloc map[string]uint64
	wall  time.Duration
	// uncovered is the root's own self time: wall time no span covers.
	uncovered time.Duration
}

func sumByRoot(spans []Span) []*rootSums {
	self := SelfTimes(spans)
	byRoot := map[int]*rootSums{}
	var order []int
	for _, s := range spans {
		if s.Parent < 0 {
			byRoot[s.ID] = &rootSums{kind: s.Name, dur: map[string]time.Duration{},
				self: map[string]time.Duration{}, alloc: map[string]uint64{},
				wall: s.Dur(), uncovered: self[s.ID]}
			order = append(order, s.ID)
		}
	}
	for _, s := range spans {
		r := byRoot[s.Root]
		if s.Parent < 0 || r == nil {
			continue
		}
		r.dur[s.Name] += s.Dur()
		r.self[s.Name] += self[s.ID]
		r.alloc[s.Name] += s.Alloc
	}
	out := make([]*rootSums, 0, len(order))
	for _, id := range order {
		out = append(out, byRoot[id])
	}
	return out
}
