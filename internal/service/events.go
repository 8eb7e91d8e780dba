package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/crp-eda/crp/internal/flow"
)

// Event is one line of a job's event journal: a flow-level progress point
// (kinds "gr", "resume", "iteration", "degradation" — see flow.Event) or a
// service-level lifecycle transition (kinds "submitted", "attempt",
// "preempted", "requeued", "done", "failed", "cancelled").
//
// The journal file (events.ndjson in the job directory) is the source of
// truth for progress: workers — in-process or isolated child processes —
// append to it, and both the status endpoint and the streaming endpoint
// read it back. In-memory notifications only wake streamers up early; a
// lost wakeup costs latency, never an event.
type Event struct {
	Kind       string `json:"kind"`
	Attempt    int    `json:"attempt,omitempty"`
	Iter       int    `json:"iter,omitempty"`
	K          int    `json:"k,omitempty"`
	Moved      int    `json:"moved,omitempty"`
	TotalMoved int    `json:"total_moved,omitempty"`
	Stage      string `json:"stage,omitempty"`
	Fault      string `json:"fault,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// flowEvent lifts a flow progress point into a journal event.
func flowEvent(e flow.Event, attempt int) Event {
	return Event{
		Kind: e.Kind, Attempt: attempt,
		Iter: e.Iter, K: e.K, Moved: e.Moved, TotalMoved: e.TotalMoved,
		Stage: e.Stage, Fault: e.Fault, Detail: e.Detail,
	}
}

// journalName is the per-job event journal file.
const journalName = "events.ndjson"

// appendEvent durably appends one event line to the job directory's
// journal. Appends are open-write-close so concurrent writers (a child
// worker and its supervising parent) interleave whole lines on any POSIX
// filesystem; a line torn by a SIGKILL mid-write is skipped by readers.
func appendEvent(dir string, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// journal appends e to the job's event journal. A failed append is
// reported, not returned: it costs a progress record, never the job.
func (j *Job) journal(e Event) {
	if err := appendEvent(j.Dir, e); err != nil {
		fmt.Fprintf(os.Stderr, "service: journaling %s event for %s: %v\n", e.Kind, j.ID, err)
	}
}

// readJournal returns the journal's raw JSON lines from byte offset `from`
// on, plus the offset to continue from. Invalid (torn) lines are dropped;
// a torn *final* line is not consumed, so a reader polling mid-append picks
// the completed line up on its next call.
func readJournal(dir string, from int64) (lines [][]byte, next int64, err error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, from, nil
		}
		return nil, from, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, from, err
	}
	if fi.Size() <= from {
		return nil, from, nil
	}
	buf := make([]byte, fi.Size()-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, from, err
	}
	next = from
	for len(buf) > 0 {
		nl := -1
		for i, b := range buf {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // incomplete final line: leave it for the next read
		}
		line := buf[:nl]
		buf = buf[nl+1:]
		next += int64(nl) + 1
		if json.Valid(line) {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	return lines, next, nil
}

// decodeJournal parses the journal's events from offset 0.
func decodeJournal(dir string) ([]Event, error) {
	lines, _, err := readJournal(dir, 0)
	if err != nil {
		return nil, err
	}
	evs := make([]Event, 0, len(lines))
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("journal line %q: %w", line, err)
		}
		evs = append(evs, e)
	}
	return evs, nil
}

// progress derives the freshest (iter, k, totalMoved) from an event list —
// the journal-backed half of a job's status, valid across process
// boundaries and daemon restarts.
func progress(evs []Event) (iter, k, totalMoved int) {
	for _, e := range evs {
		switch e.Kind {
		case "gr", "resume", "iteration":
			iter, totalMoved = e.Iter, e.TotalMoved
			if e.K > 0 {
				k = e.K
			}
		}
	}
	return iter, k, totalMoved
}

// hub wakes a job's event streamers. Subscribers hold a 1-buffered ping
// channel: notify never blocks, coalescing bursts into one wakeup.
type hub struct {
	mu   sync.Mutex
	subs map[chan struct{}]struct{}
}

func (h *hub) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[chan struct{}]struct{})
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *hub) unsubscribe(ch chan struct{}) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

func (h *hub) notify() {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
}
