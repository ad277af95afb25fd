package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sumsOf derives Sums from a batch matching — the oracle for the
// streaming accumulation semantics.
func sumsOf(a, b *trace.Trace) *Sums {
	return splitSums(a, b, 1, func(int32) int { return 0 })[0]
}

// splitSums derives the batch matching's Sums split across k partials:
// each matched pair goes to partial part(posA), OnlyA to the first and
// OnlyB to the last partial, and every partial carries both spans. Each
// pair's positions land in exactly one partial, so the partials'
// position sets are disjoint.
func splitSums(a, b *trace.Trace, k int, part func(posA int32) int) []*Sums {
	m := match(a, b)
	out := make([]*Sums, k)
	for j := range out {
		out[j] = &Sums{SpanA: a.Span(), SpanB: b.Span()}
	}
	out[0].OnlyA = m.onlyA
	out[k-1].OnlyB = m.onlyB
	for i := 0; i < m.commonCount(); i++ {
		s := out[part(m.posA[i])]
		s.Common++
		s.PosA = append(s.PosA, m.posA[i])
		s.PosB = append(s.PosB, m.posB[i])
		la, lb := m.latencyPair(a, b, i)
		s.SumAbsLat += absInt64(int64(lb - la))
		ga, gb := m.gapPair(a, b, i)
		di := int64(gb - ga)
		s.SumAbsIAT += absInt64(di)
		if di <= 10 && di >= -10 {
			s.Within10++
		}
	}
	return out
}

// scrambledTrial builds a trace of n packets with drops, jitter and
// reordering driven by rng.
func scrambledTrial(name string, n int, rng *rand.Rand) *trace.Trace {
	tr := trace.New(name, n)
	at := sim.Time(0)
	order := rand.New(rand.NewSource(rng.Int63()))
	// Emit in mildly shuffled bursts to create reordering.
	burst := make([]uint64, 0, 4)
	flush := func() {
		order.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
		for _, seq := range burst {
			at += sim.Duration(80 + rng.Intn(60))
			tr.Append(&packet.Packet{Tag: packet.Tag{Seq: seq}, Kind: packet.KindData, FrameLen: 100}, at)
		}
		burst = burst[:0]
	}
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			continue // drop
		}
		burst = append(burst, uint64(i))
		if len(burst) == cap(burst) {
			flush()
		}
	}
	flush()
	return tr
}

// TestAssembleMatchesCompare asserts the partial-sum assembly reproduces
// Compare bit for bit on randomized trials, including degenerate shapes.
func TestAssembleMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 50 + rng.Intn(500)
		a := scrambledTrial("A", n, rng)
		b := scrambledTrial("B", n, rng)
		want, err := Compare(a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := sumsOf(a, b).Assemble()
		assertResultEqual(t, got, want)
	}
}

func TestAssembleDegenerate(t *testing.T) {
	mk := func(name string, seqs []uint64, times []sim.Time) *trace.Trace {
		tr := trace.New(name, len(seqs))
		for i, s := range seqs {
			tr.Append(&packet.Packet{Tag: packet.Tag{Seq: s}, Kind: packet.KindData, FrameLen: 64}, times[i])
		}
		return tr
	}
	cases := []struct{ a, b *trace.Trace }{
		{mk("A", nil, nil), mk("B", nil, nil)},                                                   // both empty
		{mk("A", []uint64{1}, []sim.Time{5}), mk("B", nil, nil)},                                 // one empty
		{mk("A", []uint64{1, 2}, []sim.Time{0, 10}), mk("B", []uint64{3, 4}, []sim.Time{0, 10})}, // disjoint
		{mk("A", []uint64{1}, []sim.Time{9}), mk("B", []uint64{1}, []sim.Time{3})},               // single common
		{mk("A", []uint64{1, 1}, []sim.Time{0, 4}), mk("B", []uint64{1, 1}, []sim.Time{0, 6})},   // dup tags (occ)
	}
	for i, tc := range cases {
		want, err := Compare(tc.a, tc.b, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := sumsOf(tc.a, tc.b).Assemble()
		assertResultEqual(t, got, want)
		_ = i
	}
}

func TestSumsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := scrambledTrial("A", 300, rng)
	b := scrambledTrial("B", 300, rng)
	whole := sumsOf(a, b)
	want := whole.Assemble()

	// Split the common pairs across three "shards" arbitrarily and merge.
	shards := splitSums(a, b, 3, func(posA int32) int { return int(posA) % 3 })

	merged := &Sums{}
	for _, s := range shards {
		merged.Merge(s)
	}
	got := merged.Assemble()
	assertResultEqual(t, got, want)
}

func assertResultEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.U != want.U || got.O != want.O || got.L != want.L || got.I != want.I || got.Kappa != want.Kappa {
		t.Fatalf("assembled vector differs:\n got  %v\n want %v", got, want)
	}
	if got.Common != want.Common || got.OnlyA != want.OnlyA || got.OnlyB != want.OnlyB {
		t.Fatalf("counts differ: got (%d,%d,%d) want (%d,%d,%d)",
			got.Common, got.OnlyA, got.OnlyB, want.Common, want.OnlyA, want.OnlyB)
	}
	if got.MovedPackets != want.MovedPackets {
		t.Fatalf("moved packets: got %d want %d", got.MovedPackets, want.MovedPackets)
	}
	if got.PctIATWithin10 != want.PctIATWithin10 {
		t.Fatalf("pct within 10: got %v want %v", got.PctIATWithin10, want.PctIATWithin10)
	}
}
