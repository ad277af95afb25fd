package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestTraceSumsAssembleMatchesCompare is the bit-identity anchor for
// TraceSums: collapsing a whole trace pair into one partial and
// assembling it must reproduce Compare exactly, on randomized trials and
// on degenerate shapes.
func TestTraceSumsAssembleMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(400)
		a := scrambledTrial("A", n, rng)
		b := scrambledTrial("B", n, rng)
		want, err := Compare(a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := TraceSums(a, b)
		if err != nil {
			t.Fatal(err)
		}
		assertResultEqual(t, s.Assemble(), want)

		// Field-by-field against the batch-derived oracle partial.
		oracle := sumsOf(a, b)
		if s.Common != oracle.Common || s.OnlyA != oracle.OnlyA || s.OnlyB != oracle.OnlyB ||
			s.SumAbsLat != oracle.SumAbsLat || s.SumAbsIAT != oracle.SumAbsIAT ||
			s.Within10 != oracle.Within10 || s.SpanA != oracle.SpanA || s.SpanB != oracle.SpanB {
			t.Fatalf("trial %d: TraceSums %+v != oracle %+v", trial, s, oracle)
		}
	}
}

func TestTraceSumsDegenerate(t *testing.T) {
	empty := trace.New("E", 0)
	one := scrambledTrial("A", 3, rand.New(rand.NewSource(1)))
	for i, tc := range []struct{ a, b *trace.Trace }{
		{empty, empty},
		{one, empty},
		{empty, one},
	} {
		want, err := Compare(tc.a, tc.b, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s, err := TraceSums(tc.a, tc.b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertResultEqual(t, s.Assemble(), want)
	}
}

// TestTraceSumsMergeOrderFree: partials over disjoint position sets
// merge to the same assembled result whatever the fold order or tree
// shape, and that result is the whole pair's TraceSums — a pairwise
// reduction is byte-identical to a sequential fold.
func TestTraceSumsMergeOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := scrambledTrial("A", 900, rng)
	b := scrambledTrial("B", 900, rng)
	whole, err := TraceSums(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Assemble()
	const k = 9
	parts := splitSums(a, b, k, func(int32) int { return rng.Intn(k) })

	// Pairwise tree reduction over copies, so parts stay intact.
	tree := make([]*Sums, k)
	for i, p := range parts {
		tree[i] = &Sums{}
		tree[i].Merge(p)
	}
	for len(tree) > 1 {
		var next []*Sums
		for i := 0; i < len(tree); i += 2 {
			if i+1 < len(tree) {
				tree[i].Merge(tree[i+1])
			}
			next = append(next, tree[i])
		}
		tree = next
	}
	assertResultEqual(t, tree[0].Assemble(), want)

	// Arbitrary permutations of the fold order.
	for round := 0; round < 5; round++ {
		acc := &Sums{}
		for _, i := range rng.Perm(k) {
			acc.Merge(parts[i])
		}
		assertResultEqual(t, acc.Assemble(), want)
	}
}
