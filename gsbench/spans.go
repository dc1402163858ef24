package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<call>"; spans of one simulation point share Point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Point  int    `json:"point,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All methods are no-ops
// on a nil tracer, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	points int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// point allocates a new point id shared by the spans of one point.
func (t *tracer) point() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.points++
	return t.points
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, point int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Point: point, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the lengths of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfSeconds folds span self time — duration minus the union of its
// children's intervals — by layer, the name's first dot-separated element.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self := s.End - s.Start - covered(children[s.ID])
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = x[0], x[1], true
		} else if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
