package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer from the benchmark's own code.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root span
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"` // since the tracer started
	End      float64 `json:"end_s"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// tracer keeps spans in memory until the run ends. Spans nest: a span
// begun while another is open is its child.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id for end. A nil tracer records
// nothing.
func (t *tracer) begin(name string, rep int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(), Workload: t.workload, Rep: rep})
	t.open = append(t.open, id)
	return id
}

// end closes the span and returns its duration, seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	return s.End - s.Start
}

// timed runs fn inside a span and returns the span's duration, seconds.
func (t *tracer) timed(name string, rep int, fn func()) float64 {
	id := t.begin(name, rep)
	fn()
	return t.end(id)
}

// selfTimes sums, per span name, each span's duration less the time its
// child spans cover. Children run inside their parent one after another,
// so the covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// printSelf prints the self-time table, largest first.
func (t *tracer) printSelf(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "self %-22s %9.4f s\n", n, self[n])
	}
}
