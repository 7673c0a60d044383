package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request or
// one unit of work share Trace; Parent names the span that caused this one
// (0 for a root).
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out when the run ends.
// A nil *Tracer records nothing, so untraced phases pay one nil check.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns it; End records it.
func (t *Tracer) Begin(name string, trace, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name, Start: time.Since(t.epoch)}
}

// End closes and records s.
func (t *Tracer) End(s Span) Span {
	if t == nil {
		return s
	}
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Spans returns the recorded spans with the given name.
func (t *Tracer) Spans(name string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Durations returns the lengths of the named spans in the given unit.
func (t *Tracer) Durations(name string, unit time.Duration) []float64 {
	spans := t.Spans(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / float64(unit)
	}
	return out
}

// SelfTimes returns, for every span named parent, its duration minus the
// part of its interval covered by its child spans named child (children
// may overlap each other; the covered time is their union).
func (t *Tracer) SelfTimes(parent, child string, unit time.Duration) []float64 {
	parents := t.Spans(parent)
	kids := map[uint64][]Span{}
	for _, c := range t.Spans(child) {
		kids[c.Parent] = append(kids[c.Parent], c)
	}
	out := make([]float64, 0, len(parents))
	for _, p := range parents {
		out = append(out, float64(p.Dur()-covered(p, kids[p.ID]))/float64(unit))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// WriteJSONL writes every span, one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
