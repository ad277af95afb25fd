package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Label is one key=value pair attached to an instrument.
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// instrument kinds, for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing count with atomic updates. All
// methods are nil-safe no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable value (stored as float64 bits) with atomic
// updates. All methods are nil-safe no-ops on a nil receiver.
//
// A gauge may also carry an *exemplar*: the ID of the causal span that
// produced its current value (see SpanTracer), linking a metric sample
// back to the trace explaining it — e.g. choird's per-tenant κ gauges
// point at the session span tree that scored them.
type Gauge struct {
	bits atomic.Uint64
	ex   atomic.Uint64 // exemplar span ID; 0 = none
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Max raises the gauge to v if v exceeds the current value — the
// high-water-mark operation used for ring/queue occupancy peaks.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// MaxInt is Max for integer samples.
func (g *Gauge) MaxInt(v int64) { g.Max(float64(v)) }

// SetExemplar stores v together with the span that produced it. The two
// stores are separate atomics — an exemplar is a debugging pointer, not
// part of the sample, so a torn (value, exemplar) pair is acceptable.
func (g *Gauge) SetExemplar(v float64, span SpanID) {
	if g == nil {
		return
	}
	g.Set(v)
	g.ex.Store(uint64(span))
}

// ExemplarSpan returns the span linked to the current value (0 = none).
func (g *Gauge) ExemplarSpan() SpanID {
	if g == nil {
		return 0
	}
	return SpanID(g.ex.Load())
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram buckets signed int64 observations (typically nanosecond
// deltas) on the same symmetric-log decade axis as
// stats.SymLogHistogram — the bucketing every figure in the paper uses —
// with atomic per-bucket counters so hot paths can observe without
// locks. All methods are nil-safe no-ops on a nil receiver.
type Histogram struct {
	maxDecade int
	buckets   []atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[stats.SymLogIndex(v, h.maxDecade)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// series is one labelled child of a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64
	cfn    func() int64 // callback counter (CounterFunc)
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind string
	ser  []*series
}

// Registry holds instrument families. Instrument creation takes a lock;
// updates through the returned instruments are lock-free atomics.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q;", l.Key, l.Value)
	}
	return b.String()
}

// lookup finds or creates the family, panicking on a kind conflict
// (always a programming error caught by the first test run).
func (r *Registry) lookup(name, help, kind string) *family {
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.index[name] = f
		r.fams = append(r.fams, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) find(labels []Label) *series {
	key := labelKey(labels)
	for _, s := range f.ser {
		if labelKey(s.labels) == key {
			return s
		}
	}
	return nil
}

// Counter returns (creating if needed) the counter for name+labels.
// Nil-safe: a nil registry returns a nil counter, whose methods no-op.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		return s.ctr
	}
	s := &series{labels: append([]Label(nil), labels...), ctr: &Counter{}}
	f.ser = append(f.ser, s)
	return s.ctr
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		return s.gauge
	}
	s := &series{labels: append([]Label(nil), labels...), gauge: &Gauge{}}
	f.ser = append(f.ser, s)
	return s.gauge
}

// CounterFunc registers a callback counter evaluated at exposition
// time — for monotone totals a subsystem already tracks (e.g. a
// tracer's dropped-event count). The callback must be monotone and safe
// to invoke from the scraping goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		s.cfn = fn
		return
	}
	f.ser = append(f.ser, &series{labels: append([]Label(nil), labels...), cfn: fn})
}

// GaugeFunc registers a callback gauge evaluated at exposition time —
// zero hot-path cost for values a subsystem already tracks. The callback
// must be safe to invoke from the scraping goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		s.fn = fn
		return
	}
	f.ser = append(f.ser, &series{labels: append([]Label(nil), labels...), fn: fn})
}

// Histogram returns (creating if needed) a symmetric-log histogram with
// maxDecade decades per side (7 covers ±100 ms in nanoseconds).
func (r *Registry) Histogram(name, help string, maxDecade int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if maxDecade < 0 {
		maxDecade = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	if s := f.find(labels); s != nil {
		return s.hist
	}
	h := &Histogram{maxDecade: maxDecade, buckets: make([]atomic.Int64, stats.SymLogBucketCount(maxDecade))}
	f.ser = append(f.ser, &series{labels: append([]Label(nil), labels...), hist: h})
	return h
}

// GaugeValue reads the current value of a gauge series by name+labels,
// reporting ok=false when no such series exists. Used by CLIs to surface
// running values (e.g. the streaming engine's whole-run κ) without
// holding instrument pointers.
func (r *Registry) GaugeValue(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil || f.kind != kindGauge {
		return 0, false
	}
	s := f.find(labels)
	if s == nil {
		return 0, false
	}
	if s.fn != nil {
		return s.fn(), true
	}
	return s.gauge.Value(), true
}

// ---- exposition ----

func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// families copies every family and each of its series by value under
// the lock, sorted by name, so exposition can read them while
// instruments are still being registered: registration appends to a
// family's series list and CounterFunc/GaugeFunc rewrite a series'
// callback in place. A series holds only labels, instrument pointers
// and callbacks, so the copy shares the live instruments.
func (r *Registry) families() []family {
	r.mu.Lock()
	fams := make([]family, len(r.fams))
	for i, f := range r.fams {
		fams[i] = *f
		vals := make([]series, len(f.ser))
		fams[i].ser = make([]*series, len(f.ser))
		for j, s := range f.ser {
			vals[j] = *s
			fams[i].ser[j] = &vals[j]
		}
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b family) int { return strings.Compare(a.name, b.name) })
	return fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (families sorted by name, histograms as cumulative le-buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := r.families()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.ser {
			switch {
			case s.hist != nil:
				h := s.hist
				ub := stats.SymLogUpperBounds(h.maxDecade)
				cum := int64(0)
				for i := range h.buckets {
					cum += h.buckets[i].Load()
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, promLabels(s.labels, L("le", formatFloat(ub[i]))), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, promLabels(s.labels), h.Sum()); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels), h.Count()); err != nil {
					return err
				}
			case s.fn != nil:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s.labels), formatFloat(s.fn())); err != nil {
					return err
				}
			case s.cfn != nil:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.cfn()); err != nil {
					return err
				}
			case s.gauge != nil:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s.labels), formatFloat(s.gauge.Value())); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.ctr.Value()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SeriesSnapshot is one series' state in a JSON snapshot.
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *int64            `json:"sum,omitempty"`
	Buckets map[string]int64  `json:"buckets,omitempty"`
	// ExemplarSpan links a gauge sample to the causal span that
	// produced it (16 hex digits; see SpanTracer), when one was set.
	ExemplarSpan string `json:"exemplar_span,omitempty"`
}

// FamilySnapshot is one metric family's state in a JSON snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every family's current state (sorted by name).
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	fams := r.families()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.kind, Help: f.help}
		for _, s := range f.ser {
			ss := SeriesSnapshot{}
			if len(s.labels) > 0 {
				ss.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch {
			case s.hist != nil:
				h := s.hist
				labels := stats.SymLogLabels(h.maxDecade)
				ss.Buckets = make(map[string]int64)
				for i := range h.buckets {
					if n := h.buckets[i].Load(); n > 0 {
						ss.Buckets[labels[i]] = n
					}
				}
				c, sum := h.Count(), h.Sum()
				ss.Count, ss.Sum = &c, &sum
			case s.fn != nil:
				v := s.fn()
				ss.Value = &v
			case s.cfn != nil:
				v := float64(s.cfn())
				ss.Value = &v
			case s.gauge != nil:
				v := s.gauge.Value()
				ss.Value = &v
				if ex := s.gauge.ExemplarSpan(); ex != 0 {
					ss.ExemplarSpan = ex.String()
				}
			default:
				v := float64(s.ctr.Value())
				ss.Value = &v
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
