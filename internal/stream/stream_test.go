package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// assertWindowsEqual compares streaming output against the batch oracle
// window for window. The equivalence guarantee is bit-exact; the 1e-9
// tolerance of the acceptance criteria is only a backstop.
func assertWindowsEqual(t *testing.T, got []metrics.WindowResult, want []metrics.WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streaming produced %d windows, batch %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End {
			t.Fatalf("window %d bounds [%v,%v) != batch [%v,%v)", i, g.Start, g.End, w.Start, w.End)
		}
		gr, wr := g.Result, w.Result
		if gr.Common != wr.Common || gr.OnlyA != wr.OnlyA || gr.OnlyB != wr.OnlyB {
			t.Fatalf("window %d counts (%d,%d,%d) != batch (%d,%d,%d)",
				i, gr.Common, gr.OnlyA, gr.OnlyB, wr.Common, wr.OnlyA, wr.OnlyB)
		}
		if gr.MovedPackets != wr.MovedPackets {
			t.Fatalf("window %d moved %d != batch %d", i, gr.MovedPackets, wr.MovedPackets)
		}
		check := func(name string, a, b float64) {
			if a != b && math.Abs(a-b) > 1e-9 {
				t.Fatalf("window %d %s: streaming %v != batch %v", i, name, a, b)
			}
			if a != b {
				t.Errorf("window %d %s within 1e-9 but not bit-equal: %v vs %v", i, name, a, b)
			}
		}
		check("U", gr.U, wr.U)
		check("O", gr.O, wr.O)
		check("L", gr.L, wr.L)
		check("I", gr.I, wr.I)
		check("κ", gr.Kappa, wr.Kappa)
		check("pct10", gr.PctIATWithin10, wr.PctIATWithin10)
	}
}

func runBoth(t *testing.T, a, b *trace.Trace, window sim.Duration, cfg Config) (*Summary, []metrics.WindowResult) {
	t.Helper()
	want, err := metrics.CompareWindowed(a, b, window, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = window
	sum, err := Run(NewTraceSource(a), NewTraceSource(b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum, want
}

// TestDifferentialSeededSimulator is the headline acceptance test:
// streaming κ equals batch CompareWindowed κ window for window on
// captures recorded from three different seeded simulator environments
// (run under -race in CI via verify.sh).
func TestDifferentialSeededSimulator(t *testing.T) {
	envs := []testbed.Env{
		testbed.LocalSingle(),
		testbed.FabricShared40(),
		testbed.FabricDedicated80Noisy(),
	}
	for i, env := range envs {
		res, err := experiments.Run(env, experiments.TrialConfig{Packets: 4000, Runs: 2, Seed: int64(41 + i)})
		if err != nil {
			t.Fatalf("%s: %v", env.Name, err)
		}
		a, b := res.Traces[0], res.Traces[1]
		if a.Len() == 0 || b.Len() == 0 {
			t.Fatalf("%s: empty capture", env.Name)
		}
		span := a.Span()
		if b.Span() > span {
			span = b.Span()
		}
		for _, windows := range []sim.Duration{span/16 + 1, span/5 + 1, span + 1} {
			for _, shards := range []int{1, 4} {
				sum, want := runBoth(t, a, b, windows, Config{Shards: shards, Buffer: 128})
				assertWindowsEqual(t, sum.Windows, want)
			}
		}
	}
}

// jitteredTrial builds a synthetic trial with drops, duplicate tags,
// reordering and jitter.
func jitteredTrial(name string, n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(name, n)
	at := sim.Time(0)
	i := 0
	for tr.Len() < n {
		at += sim.Duration(90 + rng.Intn(40))
		seq := uint64(i)
		switch rng.Intn(25) {
		case 0: // drop
			i++
			continue
		case 1: // duplicate tag (same seq twice)
			tr.Append(&packet.Packet{Tag: packet.Tag{Seq: seq}, Kind: packet.KindData, FrameLen: 100}, at)
			at += sim.Duration(5 + rng.Intn(10))
		case 2: // swap with the next packet (reorder)
			if tr.Len()+2 <= n {
				tr.Append(&packet.Packet{Tag: packet.Tag{Seq: seq + 1}, Kind: packet.KindData, FrameLen: 100}, at)
				at += sim.Duration(5 + rng.Intn(10))
				tr.Append(&packet.Packet{Tag: packet.Tag{Seq: seq}, Kind: packet.KindData, FrameLen: 100}, at)
				i += 2
				continue
			}
		}
		tr.Append(&packet.Packet{Tag: packet.Tag{Seq: seq}, Kind: packet.KindData, FrameLen: 100}, at)
		i++
	}
	return tr
}

// TestDifferentialSynthetic covers adversarial shapes the simulator does
// not produce: duplicate tags, heavy drops, disjoint tails, and window
// boundaries that split bursts.
func TestDifferentialSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		a := jitteredTrial("A", 1500, seed)
		b := jitteredTrial("B", 1500, seed+100)
		for _, window := range []sim.Duration{1_000, 7_777, 50_000} {
			sum, want := runBoth(t, a, b, window, Config{Shards: 3, Buffer: 32, MaxLag: 3})
			assertWindowsEqual(t, sum.Windows, want)
		}
	}
}

// TestDifferentialDegenerate checks empty and one-sided inputs.
func TestDifferentialDegenerate(t *testing.T) {
	empty := trace.New("E", 0)
	one := jitteredTrial("A", 200, 9)
	cases := []struct{ a, b *trace.Trace }{
		{empty, empty},
		{one, empty},
		{empty, one},
		{one, one},
	}
	for i, tc := range cases {
		sum, want := runBoth(t, tc.a, tc.b, 5_000, Config{Shards: 2})
		if len(sum.Windows) != len(want) {
			t.Fatalf("case %d: %d windows vs %d", i, len(sum.Windows), len(want))
		}
		assertWindowsEqual(t, sum.Windows, want)
	}
}

// TestBoundedMemory streams a trace far larger than the configured
// buffer budget and asserts the per-shard high-water marks stayed at the
// few-open-windows scale, not the trace scale — the constant-memory
// claim of the subsystem.
func TestBoundedMemory(t *testing.T) {
	const n = 60_000
	a := jitteredTrial("A", n, 3)
	b := jitteredTrial("B", n, 4)
	cfg := Config{
		Window:         50_000, // ≈ 450 packets per window
		Shards:         4,
		Buffer:         64, // far below n
		MaxLag:         2,
		DiscardWindows: true,
	}
	windows := 0
	cfg.OnWindow = func(metrics.WindowResult) { windows++ }
	sum, err := Run(NewTraceSource(a), NewTraceSource(b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != nil {
		t.Fatal("DiscardWindows retained window results")
	}
	if windows != sum.Aggregate.Windows || windows < 100 {
		t.Fatalf("OnWindow saw %d windows, aggregate %d", windows, sum.Aggregate.Windows)
	}
	if sum.PacketsA != n || sum.PacketsB != n {
		t.Fatalf("ingested (%d,%d), want (%d,%d)", sum.PacketsA, sum.PacketsB, n, n)
	}
	if got := sum.Stats.PeakOpenWindows; got > cfg.MaxLag+2 {
		t.Fatalf("peak open windows %d exceeds MaxLag bound %d", got, cfg.MaxLag+2)
	}
	// Budget: both sides' packets for the open windows, split across
	// shards, with generous slack for hash skew.
	perWindow := 2 * n / windows
	budget := perWindow * (cfg.MaxLag + 2) / cfg.Shards * 4
	if got := sum.Stats.PeakShardEntries; got > budget || got == 0 {
		t.Fatalf("peak shard entries %d outside (0, %d]", got, budget)
	}
}

// TestAggregateMatchesWindowSums sanity-checks the running aggregate
// against a direct recombination of the emitted windows.
func TestAggregateMatchesWindowSums(t *testing.T) {
	a := jitteredTrial("A", 3000, 5)
	b := jitteredTrial("B", 3000, 6)
	sum, want := runBoth(t, a, b, 20_000, Config{Shards: 4})
	assertWindowsEqual(t, sum.Windows, want)

	var common, onlyA, onlyB int64
	var kappaSum float64
	for _, w := range sum.Windows {
		common += int64(w.Result.Common)
		onlyA += int64(w.Result.OnlyA)
		onlyB += int64(w.Result.OnlyB)
		kappaSum += w.Result.Kappa
	}
	ag := sum.Aggregate
	if ag.Common != common || ag.OnlyA != onlyA || ag.OnlyB != onlyB {
		t.Fatalf("aggregate counts (%d,%d,%d) != window sums (%d,%d,%d)",
			ag.Common, ag.OnlyA, ag.OnlyB, common, onlyA, onlyB)
	}
	wantU := 1 - 2*float64(common)/float64(2*common+onlyA+onlyB)
	if math.Abs(ag.U-wantU) > 1e-12 {
		t.Fatalf("aggregate U %v, want %v", ag.U, wantU)
	}
	if math.Abs(ag.MeanKappa-kappaSum/float64(len(sum.Windows))) > 1e-12 {
		t.Fatalf("mean κ %v inconsistent", ag.MeanKappa)
	}
	if ag.Kappa <= 0 || ag.Kappa > 1 {
		t.Fatalf("aggregate κ %v out of range", ag.Kappa)
	}
	if ag.Windows != len(sum.Windows) {
		t.Fatalf("aggregate windows %d != %d", ag.Windows, len(sum.Windows))
	}
}

// TestIdenticalStreamsPerfectKappa: identical inputs must score κ=1
// everywhere.
func TestIdenticalStreamsPerfectKappa(t *testing.T) {
	a := jitteredTrial("A", 2000, 8)
	sum, err := Run(NewTraceSource(a), NewTraceSource(a), Config{Window: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sum.Windows {
		if w.Result.Kappa != 1 {
			t.Fatalf("window %v: κ=%v on identical streams", w, w.Result.Kappa)
		}
	}
	if sum.Aggregate.Kappa != 1 || sum.Aggregate.MeanKappa != 1 {
		t.Fatalf("aggregate %v on identical streams", sum.Aggregate)
	}
}

// TestOnWindowOrder: windows must be delivered in ascending order even
// with many shards racing.
func TestOnWindowOrder(t *testing.T) {
	a := jitteredTrial("A", 5000, 12)
	b := jitteredTrial("B", 5000, 13)
	var starts []sim.Time
	cfg := Config{Window: 3_000, Shards: 8, Buffer: 16, MaxLag: 2,
		OnWindow: func(w metrics.WindowResult) { starts = append(starts, w.Start) }}
	if _, err := Run(NewTraceSource(a), NewTraceSource(b), cfg); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("window order violated: %v after %v", starts[i], starts[i-1])
		}
	}
	if len(starts) < 50 {
		t.Fatalf("only %d windows", len(starts))
	}
}

// TestNonMonotoneSourceErrors: a source violating the timestamp contract
// aborts with an error but still returns the scored prefix.
func TestNonMonotoneSourceErrors(t *testing.T) {
	tr := trace.New("bad", 3)
	tr.Packets = append(tr.Packets,
		&packet.Packet{Tag: packet.Tag{Seq: 1}, Kind: packet.KindData},
		&packet.Packet{Tag: packet.Tag{Seq: 2}, Kind: packet.KindData},
		&packet.Packet{Tag: packet.Tag{Seq: 3}, Kind: packet.KindData})
	tr.Times = append(tr.Times, 100, 50, 200) // decreasing
	good := jitteredTrial("G", 100, 2)
	sum, err := Run(&rawSource{tr: tr}, NewTraceSource(good), Config{Window: 1_000})
	if err == nil {
		t.Fatal("non-monotone source accepted")
	}
	if sum == nil {
		t.Fatal("summary not returned alongside the error")
	}
}

// TestCutAfterRecordHeaderIsNotCleanEOF: a capture that ends exactly
// after a record header (3 records of 124 B, cut at 24 + 2·(16+124) + 16)
// is mid-record. Ingest ends a side quietly only on io.EOF, so the
// reader must not let that cut read as one: the run reports the
// truncation alongside the scored prefix.
func TestCutAfterRecordHeaderIsNotCleanEOF(t *testing.T) {
	tr := trace.New("cut", 3)
	for i := 0; i < 3; i++ {
		tr.Append(&packet.Packet{Tag: packet.Tag{Seq: uint64(i)}, Kind: packet.KindData, FrameLen: 128,
			Flow: packet.FiveTuple{Src: packet.IPForNode(1), Dst: packet.IPForNode(2), Proto: packet.ProtoUDP}}, sim.Time(i)*100)
	}
	var buf bytes.Buffer
	if err := pcap.Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	src, err := pcap.NewStream(bytes.NewReader(buf.Bytes()[:24+2*(16+124)+16]), "cut")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(src, NewTraceSource(tr), Config{Window: 1_000})
	if !errors.Is(err, pcap.ErrTruncated) {
		t.Fatalf("cut capture scored as a clean file: err %v", err)
	}
	if sum == nil || sum.PacketsA != 2 || sum.PacketsB != 3 {
		t.Fatalf("summary %+v, want the 2-packet prefix against 3", sum)
	}
}

// rawSource bypasses trace validation (TraceSource would be fine too,
// but be explicit that the stream engine itself must catch it).
type rawSource struct {
	tr *trace.Trace
	i  int
}

func (s *rawSource) Next() (*packet.Packet, sim.Time, error) {
	if s.i >= s.tr.Len() {
		return nil, 0, io.EOF
	}
	p, t := s.tr.Packets[s.i], s.tr.Times[s.i]
	s.i++
	return p, t, nil
}

// TestTapSource drives the live-tap path: a producer goroutine plays a
// trial into two taps while the engine consumes them concurrently.
func TestTapSource(t *testing.T) {
	a := jitteredTrial("A", 4000, 21)
	b := jitteredTrial("B", 4000, 22)
	want, err := metrics.CompareWindowed(a, b, 25_000, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}

	tapA := NewTap(64, false)
	tapB := NewTap(64, false)
	go func() {
		for i := 0; i < a.Len(); i++ {
			tapA.Receive(a.Packets[i], a.Times[i])
		}
		tapA.Close()
	}()
	go func() {
		for i := 0; i < b.Len(); i++ {
			tapB.Receive(b.Packets[i], b.Times[i])
		}
		tapB.Close()
	}()
	sum, err := Run(tapA, tapB, Config{Window: 25_000, Shards: 4, Buffer: 32})
	if err != nil {
		t.Fatal(err)
	}
	assertWindowsEqual(t, sum.Windows, want)
	if tapA.Received() != uint64(a.Len()) {
		t.Fatalf("tap A received %d, want %d", tapA.Received(), a.Len())
	}
}

// TestDataOnlyFilter mirrors trace.DataOnly at ingest.
func TestDataOnlyFilter(t *testing.T) {
	mixed := trace.New("M", 0)
	at := sim.Time(0)
	for i := 0; i < 500; i++ {
		at += 100
		kind := packet.KindData
		if i%5 == 0 {
			kind = packet.KindNoise
		}
		mixed.Append(&packet.Packet{Tag: packet.Tag{Seq: uint64(i)}, Kind: kind, FrameLen: 64}, at)
	}
	clean := mixed.DataOnly()
	want, err := metrics.CompareWindowed(clean, clean, 5_000, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(NewTraceSource(mixed), NewTraceSource(mixed), Config{Window: 5_000, DataOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	assertWindowsEqual(t, sum.Windows, want)
	if sum.PacketsA != int64(clean.Len()) {
		t.Fatalf("ingested %d, want %d data packets", sum.PacketsA, clean.Len())
	}
}

// TestConfigValidation rejects a missing window.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := New(Config{Window: -5}); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestShardOfStable: the shard hash must be deterministic and in range.
func TestShardOfStable(t *testing.T) {
	counts := make([]int, 5)
	for i := 0; i < 10_000; i++ {
		k := metrics.Key{Tag: packet.Tag{Replayer: uint16(i % 3), Stream: uint16(i % 7), Seq: uint64(i)}, Occ: uint32(i % 2)}
		s := shardOf(k, 5)
		if s != shardOf(k, 5) {
			t.Fatal("hash not deterministic")
		}
		if s < 0 || s >= 5 {
			t.Fatalf("shard %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 1_000 {
			t.Fatalf("shard %d badly unbalanced: %d/10000", s, c)
		}
	}
}
