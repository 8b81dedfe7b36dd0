package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// A span covers one call into a layer, made from the benchmark's own
// code. Spans of one trial or one request share an id; per-round work
// is folded into the count of the span that covers the rounds rather
// than recorded as one span per round.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// layer is the package a span's call went into: its name up to the
// first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i, adding count to its counter.
func (t *tracer) end(i int, count int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Count += count
	t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name string, id int64, parent int, start time.Time, d time.Duration, count int64) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s + int64(d), Count: count})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// selfTimes returns every closed span's self time: its duration minus
// the part of it that its children's intervals cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerShares reports each layer's share of all traced self time, in
// percent, for every layer in layers (zero for idle ones).
func (t *tracer) layerShares(r *report, layers []string) {
	self := t.selfTimes()
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		byLayer[s.layer()] += self[i]
		total += self[i]
	}
	for _, l := range layers {
		pct := 0.0
		if total > 0 {
			pct = float64(byLayer[l]) / float64(total) * 100
		}
		r.set("share."+l+"_pct", "%", pct)
	}
}

// write saves the spans as NDJSON under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
