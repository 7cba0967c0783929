package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are recorded from outside the program, around calls
// into each layer's public functions; Parent links a span to the call
// it happened inside, and Run groups the spans of one operation (a
// bulk replay, one ingest job).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end
// of the traced run, so recording stays off the measured path's I/O.
// It is safe for concurrent use: read spans are recorded on the
// streaming pipeline's own goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t     *tracer
	id    int
	s     span
	ended bool
}

// start opens a span. A nil tracer hands out spans that record
// nothing, so untraced code paths can share the traced ones.
func (t *tracer) start(run, parent int, name string) *openSpan {
	if t == nil {
		return &openSpan{s: span{Start: time.Now().UnixNano()}}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{}) // reserve the id
	t.mu.Unlock()
	return &openSpan{t: t, id: id, s: span{ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(time.Since(t.epoch))}}
}

// end records the span and returns its duration; later calls only
// return the recorded duration.
func (o *openSpan) end() time.Duration {
	if o.ended {
		return o.s.dur()
	}
	o.ended = true
	if o.t == nil {
		o.s.End = time.Now().UnixNano()
		return o.s.dur()
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans[o.id-1] = o.s
	o.t.mu.Unlock()
	return o.s.dur()
}

// selfTimes sums, per span name, the self time of the run's spans: a
// span's duration minus the part of its interval its children cover
// (children that overlap each other are counted once).
func (t *tracer) selfTimes(run int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.ID != 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.ID == 0 || s.Run != run {
			continue
		}
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
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

// total sums the durations of the run's spans with the given name; a
// negative run matches every run.
func (t *tracer) total(run int, name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(run, name) {
		d += x
	}
	return d
}

// durations lists the durations of the run's spans with the given
// name; a negative run matches every run.
func (t *tracer) durations(run int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.ID != 0 && s.Name == name && (run < 0 || s.Run == run) {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// byRun sums the durations of the spans with the given name per run.
func (t *tracer) byRun(name string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.ID != 0 && s.Name == name {
			m[s.Run] += s.dur()
		}
	}
	return m
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
