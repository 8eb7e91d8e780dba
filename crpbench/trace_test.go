package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimesNestedOverlapping pins down the self-time rule on a tree
// whose children overlap each other, stick out of their parent, and have
// children of their own.
func TestSelfTimesNestedOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Root: 0, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Root: 0, Name: "a.call", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Root: 0, Name: "b.call", Start: ms(20), End: ms(50)},  // overlaps a.call
		{ID: 3, Parent: 0, Root: 0, Name: "b.call", Start: ms(90), End: ms(120)}, // sticks out of op
		{ID: 4, Parent: 1, Root: 0, Name: "c.call", Start: ms(15), End: ms(25)},  // nested in a.call
		{ID: 5, Parent: -1, Root: 5, Name: "probe", Start: ms(200), End: ms(210)},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		0: ms(50), // 100 minus the union [10,50] + [90,100]
		1: ms(10), // 20 minus its child's 10
		2: ms(30),
		3: ms(30), // a leaf keeps its whole duration
		4: ms(10),
		5: ms(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}

	roots := sumByRoot(spans)
	if len(roots) != 2 || roots[0].kind != "op" || roots[1].kind != "probe" {
		t.Fatalf("roots = %+v", roots)
	}
	op := roots[0]
	if op.uncovered != ms(50) || op.wall != ms(100) {
		t.Errorf("op uncovered %v wall %v, want 50ms and 100ms", op.uncovered, op.wall)
	}
	if op.dur["b.call"] != ms(60) || op.self["b.call"] != ms(60) {
		t.Errorf("b.call dur %v self %v, want 60ms each", op.dur["b.call"], op.self["b.call"])
	}
	if op.dur["a.call"] != ms(20) || op.self["a.call"] != ms(10) {
		t.Errorf("a.call dur %v self %v, want 20ms and 10ms", op.dur["a.call"], op.self["a.call"])
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	parent := Span{Start: ms(0), End: ms(100)}
	kids := []Span{
		{Start: ms(60), End: ms(70)},
		{Start: ms(0), End: ms(10)},
		{Start: ms(62), End: ms(65)}, // inside the first
		{Start: ms(-5), End: ms(0)},  // entirely before the parent
	}
	if got := covered(parent, kids); got != ms(20) {
		t.Errorf("covered = %v, want 20ms", got)
	}
}

func TestTracerRecordsAndNilIsNoop(t *testing.T) {
	var none *Tracer
	if id := none.Begin(-1, "op"); id != -1 {
		t.Fatalf("nil tracer Begin = %d", id)
	}
	none.End(-1)
	if none.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}

	tr := NewTracer()
	root := tr.Begin(-1, "op")
	child := tr.Begin(root, "x.call")
	_ = make([]byte, 1<<20)
	tr.End(child)
	now := time.Now()
	ev := tr.Add(root, "x.event", now, now.Add(time.Millisecond))
	open := tr.Begin(root, "x.open") // never closed: not reported
	_ = open
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Root != root {
			t.Errorf("span %s root %d, want %d", s.Name, s.Root, root)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Name != "x.call" || spans[2].ID != ev {
		t.Errorf("unexpected spans %+v", spans)
	}
}
