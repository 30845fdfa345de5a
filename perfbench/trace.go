package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"m3d/internal/obs"
)

// spanRec is one span of a traced run as written out: the benchmark's
// own spans around each call into a layer, and the program's spans
// collected through obs.Recorder. Spans of one operation share Op (0 is
// set-up); Parent is the ID of the enclosing span (0 for a root).
type spanRec struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent"`
	Op      int               `json:"op"`
	Name    string            `json:"name"`
	Source  string            `json:"source"` // "bench" or "program"
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open benchmark span.
type span struct {
	tr  *tracer
	rec spanRec
}

// start opens a benchmark span of operation op under parent (nil for a
// root span).
func (t *tracer) start(op int, parent *span, name string) *span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{tr: t, rec: spanRec{ID: id, Op: op, Name: name, Source: "bench", StartNS: time.Since(t.t0).Nanoseconds()}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
	}
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	s.rec.EndNS = time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
	return time.Duration(s.rec.EndNS - s.rec.StartNS)
}

// adopt files the program spans one obs.Recorder collected. The program
// spans carry no IDs, so each gets one here, and its parent is the
// innermost span that encloses it in time: a program span or a
// benchmark span closed since from (a zero from takes every benchmark
// span). Among enclosing spans of the same class, such as a client's
// "service.sweep" span around the server's "serve.sweep" span, the
// same-class one wins, which keeps concurrent requests apart. A span
// enclosed by none is parented to root, or is a root itself when root
// is nil. The span inherits its parent's operation.
func (t *tracer) adopt(root *span, from int64, recs []obs.SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cands []spanRec
	for _, s := range t.spans {
		if s.Source == "bench" && s.ID > from {
			cands = append(cands, s)
		}
	}
	prog := make([]spanRec, len(recs))
	for i, r := range recs {
		t.next++
		prog[i] = spanRec{
			ID: t.next, Name: r.Name, Source: "program",
			StartNS: r.Start.Sub(t.t0).Nanoseconds(),
			EndNS:   r.End.Sub(t.t0).Nanoseconds(),
		}
		if len(r.Attrs) > 0 {
			prog[i].Attrs = make(map[string]string, len(r.Attrs))
			for _, a := range r.Attrs {
				prog[i].Attrs[a.Key] = a.Value
			}
		}
	}
	// Outermost first, so every parent is placed before its children.
	sort.SliceStable(prog, func(i, j int) bool {
		if prog[i].StartNS != prog[j].StartNS {
			return prog[i].StartNS < prog[j].StartNS
		}
		return prog[i].EndNS > prog[j].EndNS
	})
	for _, s := range prog {
		var parent spanRec
		if root != nil {
			parent = root.rec
		}
		best := int64(-1)
		sameClass := false
		for _, c := range cands {
			if c.StartNS > s.StartNS || c.EndNS < s.EndNS || c.ID == s.ID {
				continue
			}
			same := class(c.Name) == class(s.Name)
			d := c.EndNS - c.StartNS
			if best < 0 || (same && !sameClass) || (same == sameClass && d < best) {
				parent, best, sameClass = c, d, same
			}
		}
		s.Parent, s.Op = parent.ID, parent.Op
		cands = append(cands, s)
		t.spans = append(t.spans, s)
	}
}

// class is a span name without its layer prefix ("serve.sweep" → "sweep").
func class(name string) string {
	_, c, _ := strings.Cut(name, ".")
	return c
}

// lastID is the newest span ID handed out so far.
func (t *tracer) lastID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines, after one line identifying the
// host and code they were measured on.
func (t *tracer) write(path string, host map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
