package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the simulator.
// Parent is the id of the span that caused it (0 for a root); Run is the
// iteration it belongs to (0 for set-up and the driver passes that follow
// the iterations). Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced iterations pay one nil check per boundary. Observer
// callbacks fire from worker goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were taken elsewhere (a bucket between
// two OnSample callbacks).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// setRun tags the spans that follow with an iteration number.
func (t *tracer) setRun(run int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name and run, each span's duration minus the
// part of its interval that its children cover. Children of one span may
// overlap (cells run on parallel workers), so the covered part is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]map[int]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]time.Duration)
		}
		out[s.Name][s.Run] += s.dur() - time.Duration(covered)
	}
	return out
}

// sumByRun totals the durations of the spans named name, per run.
func sumByRun(spans []span, name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Name == name {
			out[s.Run] += s.dur()
		}
	}
	return out
}

// durations lists the durations of the iterations' spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Run != 0 {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// dumpSpans writes one JSON object per span to path.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
