package metrics

import (
	"fmt"

	"repro/internal/trace"
)

// This file holds the whole-comparison partial: TraceSums collapses a
// whole trace pair into one Sums partial — the same integer partials
// the streaming engine accumulates per window, but spanning the entire
// comparison — that assembles to the same Result as Compare. Exactness
// rests on the partial-sum algebra: every Sums field is either an exact
// integer sum, a max, or a position multiset whose order Assemble
// ignores.

// TraceSums computes the whole-comparison partial sums between trials A
// and B: the Sums such that TraceSums(a, b).Assemble() reproduces
// Compare(a, b) bit for bit on every metric field (U, O, L, I, κ,
// PctIATWithin10, MovedPackets and the Common/OnlyA/OnlyB counts). It
// performs the identical matching and integer accumulation Compare
// does — same operand order, same int→float conversion points — but
// stops before the Equation 1–5 normalizations, leaving a partial that
// can be merged with other trials' partials before assembly.
func TraceSums(a, b *trace.Trace) (*Sums, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("metrics: trial A: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("metrics: trial B: %w", err)
	}
	s := getScratch()
	defer putScratch(s)
	m := matchInto(s, a, b)

	out := &Sums{
		Common: m.commonCount(),
		OnlyA:  m.onlyA,
		OnlyB:  m.onlyB,
		SpanA:  a.Span(),
		SpanB:  b.Span(),
	}
	for i := 0; i < out.Common; i++ {
		la, lb := m.latencyPair(a, b, i)
		out.SumAbsLat += absInt64(int64(lb - la))
		ga, gb := m.gapPair(a, b, i)
		di := int64(gb - ga)
		out.SumAbsIAT += absInt64(di)
		if di <= 10 && di >= -10 {
			out.Within10++
		}
	}
	// m's position slices are scratch-backed; copy what outlives the
	// call. posA/posB are full-sequence positions ordered by appearance
	// in B — exactly the coordinates commonRanksInto re-ranks, so
	// Assemble rebuilds Compare's rankA.
	out.PosA = append([]int32(nil), m.posA...)
	out.PosB = append([]int32(nil), m.posB...)
	return out, nil
}
