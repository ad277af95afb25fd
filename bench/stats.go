package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even) and 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is how many samples must lie beyond a percentile
// before it is reported: a p90 read off 20 samples is the second-worst
// op, not a tail.
const minTailSamples = 10

// tail returns the highest nearest-rank percentile of xs that still has
// minTailSamples samples beyond it, and which percentile that is. ok is
// false — and no number is returned — when xs is too short to have one.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	rank := n - minTailSamples
	if rank < 1 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// quartiles returns the cut points Python's statistics.quantiles(xs,
// n=4) gives (the "exclusive" method), so a spread computed here is the
// one the accepting driver computes. ok is false below two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median — the
// figure a metric's bound is compared with. 0 when undefined.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// span is one timed interval recorded by the harness around a call into
// a layer's public function. Start and End are offsets from the
// tracer's origin; Parent indexes the span that caused this one (-1 for
// a root); spans of one op share Op.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children that overlap one
// another (concurrent clients) are counted once, and a child is clipped
// to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		slices.SortFunc(ks, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			if k.hi <= edge {
				continue
			}
			covered += k.hi - max(k.lo, edge)
			edge = k.hi
		}
		self[i] -= covered
	}
	return self
}
