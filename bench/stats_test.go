package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"n=1", []float64{7}, 7},
		{"odd", []float64{9, 1, 5}, 5},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"ties", []float64{2, 2, 2, 9}, 2},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("%s: median(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // n..1, unsorted on purpose
	}
	return xs
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		name      string
		in        []float64
		want, pct float64
		ok        bool
	}{
		{"empty", nil, 0, 0, false},
		{"n=1", []float64{5}, 0, 0, false},
		{"n=10: nothing has ten beyond it", seq(10), 0, 0, false},
		{"n=11: the minimum", seq(11), 1, 100.0 / 11, true},
		{"n=20: the median", seq(20), 10, 50, true},
		{"n=100: p90", seq(100), 90, 90, true},
		{"n=1000: p99", seq(1000), 990, 99, true},
		{"ties", append(seq(100), seq(100)...), 95, 95, true},
	} {
		got, pct, ok := tail(c.in)
		if got != c.want || pct != c.pct || ok != c.ok {
			t.Errorf("%s: tail = %v at p%v, %v; want %v at p%v, %v", c.name, got, pct, ok, c.want, c.pct, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7}, 2, 7, 9},
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.in, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(start, end, parent int) span {
		return span{Start: time.Duration(start), End: time.Duration(end), Parent: parent}
	}
	for _, c := range []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{"n=1, no children", []span{sp(0, 10, -1)}, []time.Duration{10}},
		{"children back to back", []span{sp(0, 10, -1), sp(0, 4, 0), sp(4, 9, 0)}, []time.Duration{1, 4, 5}},
		{"nested: a grandchild is its parent's, not the root's",
			[]span{sp(0, 10, -1), sp(2, 8, 0), sp(3, 5, 1)}, []time.Duration{4, 4, 2}},
		{"overlapping children count once", []span{sp(0, 10, -1), sp(1, 6, 0), sp(4, 9, 0)}, []time.Duration{2, 5, 5}},
		{"one child inside another", []span{sp(0, 10, -1), sp(1, 9, 0), sp(3, 4, 0)}, []time.Duration{2, 8, 1}},
		{"identical children (tie)", []span{sp(0, 10, -1), sp(2, 5, 0), sp(2, 5, 0)}, []time.Duration{7, 3, 3}},
		{"child sticking out is clipped", []span{sp(5, 10, -1), sp(8, 14, 0)}, []time.Duration{3, 6}},
		{"child outside covers nothing", []span{sp(0, 4, -1), sp(6, 8, 0)}, []time.Duration{4, 2}},
		{"two roots", []span{sp(0, 3, -1), sp(3, 7, -1), sp(4, 5, 1)}, []time.Duration{3, 3, 1}},
	} {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestTracerFold(t *testing.T) {
	var off *tracer
	if id := off.start("x", -1); id != -1 {
		t.Errorf("nil tracer start = %d, want -1", id)
	}
	off.end(-1)
	off.nextOp()
	if got := off.perOpMs("x", false); got != nil {
		t.Errorf("nil tracer perOpMs = %v", got)
	}

	tr := newTracer()
	for op := 0; op < 3; op++ {
		tr.nextOp()
		root := tr.start("whole", -1)
		tr.end(tr.start("part", root))
		tr.end(tr.start("part", root))
		tr.end(root)
	}
	if got := tr.perOpMs("part", false); len(got) != 3 {
		t.Errorf("perOpMs groups the 6 part spans into %d ops, want 3", len(got))
	}
	if got := tr.each("part"); len(got) != 6 {
		t.Errorf("each returned %d spans, want 6", len(got))
	}
	whole, self := tr.perOpMs("whole", false), tr.perOpMs("whole", true)
	for i := range whole {
		if self[i] > whole[i] || self[i] < 0 {
			t.Errorf("op %d: self %v outside [0, %v]", i, self[i], whole[i])
		}
	}
}
