package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the harness's spans in memory. A nil *tracer is the
// untraced run: start and end do nothing, so an op is written once and
// timed either way. It is safe for the concurrent serve clients.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	op     int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// nextOp starts a new op: spans recorded from here on share its id.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// perOpMs returns, for every op that recorded a span called name, the
// milliseconds that op spent in such spans: whole durations, or self
// times when self is set.
func (t *tracer) perOpMs(name string, self bool) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var selfs []time.Duration
	if self {
		selfs = selfTimes(t.spans)
	}
	byOp := map[int]time.Duration{}
	var order []int
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, seen := byOp[s.Op]; !seen {
			order = append(order, s.Op)
		}
		if self {
			byOp[s.Op] += selfs[i]
		} else {
			byOp[s.Op] += s.End - s.Start
		}
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = ms(byOp[op])
	}
	return out
}

// each returns the duration in milliseconds of every span called name.
func (t *tracer) each(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeJSON dumps the spans to path (the -trace-out file).
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
