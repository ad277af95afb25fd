package testbed

import (
	"math"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/control"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestAllEnvironmentsDistinctAndComplete(t *testing.T) {
	envs := AllEnvironments()
	if len(envs) != 9 {
		t.Fatalf("%d environments, want the paper's 9", len(envs))
	}
	seen := map[string]bool{}
	for _, e := range envs {
		if e.Name == "" || e.Description == "" {
			t.Fatalf("environment missing name/description: %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate environment %q", e.Name)
		}
		seen[e.Name] = true
		if e.RateGbps != 40 && e.RateGbps != 80 {
			t.Fatalf("%s: rate %v", e.Name, e.RateGbps)
		}
		if e.FrameLen != 1400 {
			t.Fatalf("%s: frame length %d, paper uses 1400", e.Name, e.FrameLen)
		}
		if e.Replayers < 1 || e.Replayers > 2 {
			t.Fatalf("%s: %d replayers", e.Name, e.Replayers)
		}
		if e.RecorderTimestamper == nil || e.RecorderTimestamper() == nil {
			t.Fatalf("%s: no recorder timestamper", e.Name)
		}
	}
}

// TestDescriptionRatesMatchEnv: every "N Gbps" an environment's
// Description states is its offered load, or its per-replayer share.
func TestDescriptionRatesMatchEnv(t *testing.T) {
	rate := regexp.MustCompile(`([0-9.]+) Gbps`)
	for _, e := range AllEnvironments() {
		for _, m := range rate.FindAllStringSubmatch(e.Description, -1) {
			n, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", e.Name, m[0], err)
			}
			if n != e.RateGbps && n != e.RateGbps/float64(e.Replayers) {
				t.Errorf("%s: description says %q, env offers %g Gbps over %d replayer(s)",
					e.Name, m[0], e.RateGbps, e.Replayers)
			}
		}
	}
}

func TestPPSMatchesPaper(t *testing.T) {
	e := LocalSingle()
	if pps := e.PPS(); math.Abs(pps-3.52e6)/3.52e6 > 0.01 {
		t.Fatalf("40G PPS = %v, paper says 3.52M", pps)
	}
	e80 := FabricDedicated80()
	if pps := e80.PPS(); math.Abs(pps-6.97e6)/6.97e6 > 0.015 {
		t.Fatalf("80G PPS = %v, paper says 6.97M", pps)
	}
	if n := e.PacketsFor(300 * sim.Millisecond); n < 1_040_000 || n > 1_070_000 {
		t.Fatalf("0.3s at 40G = %d packets, paper says ~1.05M", n)
	}
}

func TestEnvironmentShapeOrdering(t *testing.T) {
	// The calibrated personalities must preserve the paper's ordering:
	// local per-packet jitter is far tighter than the FABRIC VF path.
	local := LocalSingle().ReplayerNIC
	shared := FabricShared40().ReplayerNIC
	if local.PerPacketJitter.Mean() < 0 {
		t.Fatal("local jitter mean negative")
	}
	ded := FabricDedicated40().ReplayerNIC
	if ded.RepaceProb == 0 {
		t.Fatal("FABRIC dedicated 40G must re-pace bursts (Figure 6 bimodality)")
	}
	if FabricDedicated80().ReplayerNIC.RepaceProb != 0 {
		t.Fatal("80G profiles must not re-pace (Figure 9 convergence)")
	}
	if !FabricShared40Noisy().ReplayerNIC.PacketInterleave {
		t.Fatal("noisy shared env needs packet-granular VF interleaving")
	}
	if shared.VFSwitchOverhead == nil {
		t.Fatal("shared VF must pay scheduler switch overhead")
	}
}

func TestNoiseOnlyWhereExpected(t *testing.T) {
	for _, e := range AllEnvironments() {
		wantNoise := e.Name == "FABRIC Shd. 40 Gbps Noisy"
		if e.Noise != wantNoise {
			t.Fatalf("%s: Noise=%v", e.Name, e.Noise)
		}
	}
}

func TestBuildWiring(t *testing.T) {
	eng := sim.NewEngine(1)
	top := Build(eng, LocalDual())
	if len(top.GenQueues) != 2 || len(top.Middleboxes) != 2 {
		t.Fatalf("dual build: %d gens, %d middleboxes", len(top.GenQueues), len(top.Middleboxes))
	}
	if top.NoiseQueue != nil {
		t.Fatal("quiet env got a noise VF")
	}
	if top.Recorder == nil || top.Bus == nil || top.Switch == nil {
		t.Fatal("incomplete topology")
	}
}

func TestBuildNoisyHasNoiseSlice(t *testing.T) {
	eng := sim.NewEngine(1)
	top := Build(eng, FabricShared40Noisy())
	if top.NoiseQueue == nil {
		t.Fatal("noisy env has no noise VF")
	}
	top.StartNoise(5 * sim.Millisecond)
	if len(top.NoiseFlows) != 8 {
		t.Fatalf("%d noise flows, want 8", len(top.NoiseFlows))
	}
	eng.RunUntil(5 * sim.Millisecond)
	if top.NoiseDelivered() == 0 {
		t.Fatal("noise never reached its sink")
	}
}

func TestBuildZeroReplayersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero replayers accepted")
		}
	}()
	Build(sim.NewEngine(1), Env{})
}

func TestEndToEndSmoke(t *testing.T) {
	// Tiny end-to-end pass: record, replay once, packets arrive.
	eng := sim.NewEngine(2)
	env := LocalSingle()
	top := Build(eng, env)
	top.Broadcast(control.StartRecord{At: sim.Millisecond})
	top.StartGenerators(2000, 2*sim.Millisecond)
	eng.RunUntil(10 * sim.Millisecond)
	top.Broadcast(control.StopRecord{At: top.WallNow()})
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if got := top.Middleboxes[0].Recorded(); got != 2000 {
		t.Fatalf("recorded %d, want 2000", got)
	}
	top.Recorder.StartTrial("A")
	top.Broadcast(control.StartReplay{At: top.WallNow() + 20*sim.Millisecond})
	eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	if got := top.Recorder.Trace().Len(); got != 2000 {
		t.Fatalf("replay delivered %d, want 2000", got)
	}
	if err := top.Recorder.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine(9)
		top := Build(eng, LocalSingle())
		top.Broadcast(control.StartRecord{At: sim.Millisecond})
		top.StartGenerators(500, 2*sim.Millisecond)
		eng.RunUntil(10 * sim.Millisecond)
		top.Recorder.StartTrial("A")
		top.Broadcast(control.StartReplay{At: top.WallNow() + 5*sim.Millisecond})
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
		tr := top.Recorder.Trace()
		if tr.Len() == 0 {
			t.Fatal("no packets replayed")
		}
		return tr.Times[tr.Len()-1]
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestLinkFlapLocalizedByWindowedMetrics(t *testing.T) {
	// Failure injection: a link flap on the replayer→recorder path
	// during one replay produces drops (U > 0) in that run only, and
	// windowed κ pinpoints when it happened.
	eng := sim.NewEngine(77)
	env := LocalSingle()
	top := Build(eng, env)

	top.Broadcast(control.StartRecord{At: sim.Millisecond})
	top.StartGenerators(20000, 2*sim.Millisecond) // ~5.7ms of traffic
	eng.RunUntil(20 * sim.Millisecond)
	top.Broadcast(control.StopRecord{At: top.WallNow()})
	eng.RunUntil(eng.Now() + sim.Millisecond)

	runTrial := func(name string, flap bool) *trace.Trace {
		top.Recorder.StartTrial(name)
		start := top.WallNow() + 10*sim.Millisecond
		if flap {
			// Take the replayer's return path down for 1ms in the
			// middle of the ~5.7ms replay.
			mid := start + 2*sim.Millisecond
			top.Switch.Port(2).FailBetween(mid, mid+sim.Millisecond)
		}
		top.Broadcast(control.StartReplay{At: start})
		eng.RunUntil(start + 20*sim.Millisecond)
		return top.Recorder.StartTrial("scratch")
	}

	a := runTrial("A", false).DataOnly().Normalize()
	b := runTrial("B", true).DataOnly().Normalize()
	c := runTrial("C", false).DataOnly().Normalize()

	rb, err := metrics.Compare(a, b, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.U == 0 || rb.OnlyA == 0 {
		t.Fatalf("flapped run shows no drops: %v", rb)
	}
	if got := top.Switch.Port(2).Lost(); got == 0 {
		t.Fatal("no frames lost at the flapped port")
	}
	rc, err := metrics.Compare(a, c, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.U != 0 {
		t.Fatalf("clean run after flap shows drops: %v", rc)
	}

	// The windowed view localizes the episode: the worst window overlaps
	// the flap (2–3ms into the replay).
	ws, err := metrics.CompareWindowed(a, b, sim.Millisecond, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst := metrics.WorstWindow(ws)
	if worst.Start < 1*sim.Millisecond || worst.Start > 4*sim.Millisecond {
		t.Fatalf("worst window at %v, expected near the 2-3ms flap", worst.Start)
	}
	if worst.Result.U == 0 {
		t.Fatalf("worst window shows no uniqueness loss: %v", worst.Result)
	}
}

func TestStatuses(t *testing.T) {
	eng := sim.NewEngine(3)
	top := Build(eng, LocalDual())
	top.Broadcast(control.StartRecord{At: sim.Millisecond})
	top.StartGenerators(1000, 2*sim.Millisecond)
	eng.RunUntil(10 * sim.Millisecond)
	sts := top.Statuses()
	if len(sts) != 2 {
		t.Fatalf("%d statuses", len(sts))
	}
	var total uint64
	for _, s := range sts {
		total += s.Recorded
	}
	if total != 2000 {
		t.Fatalf("statuses report %d recorded, want 2000", total)
	}
}
