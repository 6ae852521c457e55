package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// daemon job share the job's X-Request-ID; in-process probes use the
// probe's name as their request ID.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	ReqID  string    `json:"request_id,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Wait   float64   `json:"wait_s,omitempty"` // time the work queued before this layer served it
	Failed bool      `json:"failed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code paths.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, reqID string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ReqID: reqID, Start: now})
	return len(t.spans)
}

// end closes span id; a non-nil err marks it failed.
func (t *tracer) end(id int, err error) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Failed = err != nil
}

// add records an interval timed elsewhere (for example from a job's
// server-side timestamps) and returns its ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// timed runs fn inside a span.
func (t *tracer) timed(name, reqID string, parent int, fn func() error) error {
	id := t.begin(name, reqID, parent)
	err := fn()
	t.end(id, err)
	return err
}

// layerRow summarizes the spans of one layer.
type layerRow struct {
	Layer    string  `json:"layer"`
	Count    int     `json:"count"`
	BusyMS   float64 `json:"busy_ms"`
	SelfMS   float64 `json:"self_ms"`
	WaitMS   float64 `json:"wait_ms"`
	Failures int     `json:"failures"`
}

// summarize folds the spans into one row per layer. A span's self time is
// its duration minus the part of it that its child spans cover.
func (t *tracer) summarize() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Layer: s.Name}
			rows[s.Name] = r
		}
		dur := s.End.Sub(s.Start)
		r.Count++
		r.BusyMS += ms(dur)
		r.SelfMS += ms(dur - covered(s, children[s.ID]))
		r.WaitMS += s.Wait * 1000
		if s.Failed {
			r.Failures++
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s %8s\n", "layer", "count", "busy_ms", "self_ms", "wait_ms", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f %12.3f %8d\n", r.Layer, r.Count, r.BusyMS, r.SelfMS, r.WaitMS, r.Failures)
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
