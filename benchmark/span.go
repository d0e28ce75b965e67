package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public API. Parent is the index of the span that
// caused it (-1 for a root); spans of one op share Op (-1 outside ops).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so the gated run executes
// the same op code with no recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were observed rather than
// bracketed (an interval between two calls the benchmark did see).
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time. It measures
// with tracing off too, so probes use one code path.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once). Unclosed spans have zero duration.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) && sp.End > sp.Start {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		if sp.End <= sp.Start {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		covered, edge := int64(0), sp.Start
		for _, k := range ks {
			s, e := max(k.s, edge), min(k.e, sp.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// spanSummary aggregates spans by name for the human-readable report.
type spanSummary struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	for i, sp := range spans {
		s := byName[sp.Name]
		if s == nil {
			s = &spanSummary{Name: sp.Name}
			byName[sp.Name] = s
		}
		s.Count++
		if sp.End > sp.Start {
			s.TotalNS += sp.End - sp.Start
		}
		s.SelfNS += self[i]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// writeSpans writes the span list as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
