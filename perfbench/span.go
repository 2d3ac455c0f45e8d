package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the public function's name, its
// interval relative to the run's start, the span that caused it, and the
// amount of work it did (instructions, bytes, byte offsets) where the
// layer metric divides by one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top level
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   uint64 `json:"work,omitempty"`
}

// tracer keeps a run's spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, which is how the untraced run calls
// the same code.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and attaches the work it did.
func (t *tracer) end(id int, work uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
}

// add records a span measured elsewhere (e.g. from a job's server-side
// timestamps), given absolute start and end times, and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time, work uint64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Work: work})
	return len(t.spans)
}

// timed runs fn inside a span and returns its wall time.
func (b *bench) timed(name string, parent int, fn func() uint64) time.Duration {
	id := b.spans.begin(name, parent)
	t0 := time.Now()
	work := fn()
	d := time.Since(t0)
	b.spans.end(id, work)
	return d
}

// layerTotal sums, over every closed span named name, its self time (its
// duration minus the part of it that its child spans cover), the work it
// reported, and the number of calls.
func (t *tracer) layerTotal(name string) (self time.Duration, work uint64, calls int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		work += s.Work
		calls++
	}
	return self, work, calls
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"run": t.run, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
