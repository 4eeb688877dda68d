package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Spans of one run or one request share a
// TraceID; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	TraceID string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// layer is the span name's prefix before the first dot ("mem.pass" → "mem").
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory for the run. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(traceID string, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, TraceID: traceID, Name: name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	return id
}

// open starts a span whose children are recorded before it ends; the
// returned func closes it. IDs are assigned on open so children can name
// their parent.
func (t *tracer) open(traceID string, parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3})
	t.mu.Unlock()
	return id, func() {
		end := float64(time.Since(t.t0).Nanoseconds()) / 1e3
		t.mu.Lock()
		t.spans[id-1].EndUS = end
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(traceID string, parent int64, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(traceID, parent, name, start, time.Now())
	return err
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children (children may overlap one another when
// they ran in parallel; the covered part is their union), in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		self := s.EndUS - s.StartUS - coveredUS(s, children[s.ID])
		out[s.layer()] += max(self, 0) / 1e6
	}
	return out
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
