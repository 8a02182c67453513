package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark's own tracer: spans are recorded from these files, around
// the calls into each layer's public functions; nothing inside internal/ is
// touched. Spans stay in memory and are written once, at exit.

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	// CPUNs is set on a stage's root span: the process CPU its timed
	// sections used.
	CPUNs int64 `json:"cpu_ns,omitempty"`
}

// tracer collects spans. A nil *tracer records nothing, so the untraced run
// pays one pointer test per site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef names an open span; the zero value of a nil tracer is inert.
type spanRef struct {
	t  *tracer
	ix int
}

// start opens a span under parent (noParent for a root).
func (t *tracer) start(name string, parent spanRef, op int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	p := -1
	if parent.t != nil {
		p = parent.ix
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: p, Op: op})
	ix := len(t.spans) - 1
	t.mu.Unlock()
	return spanRef{t, ix}
}

var noParent spanRef

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := int64(time.Since(r.t.epoch))
	r.t.mu.Lock()
	r.t.spans[r.ix].EndNs = now
	r.t.mu.Unlock()
}

// stage is one layer measured alone by the staged pass: a root span, plus a
// meter over the sections that call the layer. The stage runs with nothing
// else going on, so the process CPU of those sections is the layer's own,
// goroutines it hands work to included; preparing the next input happens
// between sections and is not counted.
type stage struct {
	sp spanRef
	m  meter
}

func (t *tracer) stage(name string) *stage {
	return &stage{sp: t.start(name, noParent, 0)}
}

func (s *stage) timed(fn func()) {
	s.m.begin()
	fn()
	s.m.end()
}

// done closes the stage's span and returns what its timed sections used.
func (s *stage) done() usage {
	s.sp.end()
	if t := s.sp.t; t != nil {
		t.mu.Lock()
		t.spans[s.sp.ix].CPUNs = int64(s.m.total.cpu)
		t.mu.Unlock()
	}
	return s.m.total
}

// durationsMs returns the duration of every finished span called name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// layerTime is one span name's totals.
type layerTime struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	// Self is Total minus the part of each span its children cover.
	Self int64 `json:"self_ns"`
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the union of its direct children's intervals clipped to it, so
// concurrent children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.EndNs - s.StartNs
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered
		out[s.Name] = lt
	}
	return out
}

// traceFile is the on-disk form: the spans, their per-name totals, and the
// metrics derived from them, so a reader needs no second tool.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Env      envBlock             `json:"env"`
	Layers   map[string]layerTime `json:"layers"`
	Metrics  map[string]metric    `json:"metrics"`
	Spans    []span               `json:"spans"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans = t.spans
	tf.Layers = selfTimes(t.spans)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
