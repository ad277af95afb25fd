// Package testbed assembles complete experiment topologies — generator,
// Choir middleboxes, switch, recorder, optional background noise — and
// defines the environment profiles whose timing personalities reproduce
// the paper's nine evaluation settings (local bare metal vs FABRIC,
// dedicated vs shared NICs, quiet vs noisy, 40 vs 80 Gbps).
//
// The profile constants are calibrated so that the *shape* of the
// paper's results holds: which environment is more consistent, by
// roughly what factor, and which metric component moves. See DESIGN.md
// §5 for the mechanism behind each knob.
package testbed

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/netsw"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Env is one experiment environment.
type Env struct {
	// Name identifies the environment (Table 2 row).
	Name string
	// Description is a one-line summary.
	Description string

	// RateGbps is the generator's offered load.
	RateGbps float64
	// FrameLen is the generated frame size.
	FrameLen int
	// Replayers is the number of parallel Choir middleboxes (N ≥ 1).
	Replayers int

	// Switch is the fabric profile.
	Switch netsw.Profile
	// GenNIC and ReplayerNIC are the TX personalities.
	GenNIC, ReplayerNIC nic.Profile
	// ReplayerQueuePkts bounds the replayer's TX queue (VF ring);
	// 0 = deep.
	ReplayerQueuePkts int
	// RecorderTimestamper builds the capture-side timestamper.
	RecorderTimestamper func() nic.Timestamper

	// ReplayStartJitter is per-run replay arming slop (per middlebox).
	ReplayStartJitter sim.Dist
	// PollInterval overrides the middlebox RX poll quantum (0 = the
	// core default), which sets the recorded burst size.
	PollInterval sim.Duration
	// StallGap/StallDur model vCPU steal on the middlebox thread
	// (nil = bare metal).
	StallGap, StallDur sim.Dist

	// Noise runs iperf3-style TCP flows on a second VF of the
	// replayer's physical NIC.
	Noise bool
	// NoiseFlows is the number of parallel TCP streams (paper: 8).
	NoiseFlows int
	// NoiseQueuePkts is the noise VF ring size.
	NoiseQueuePkts int

	// MemPoolMiB gives each middlebox a finite mbuf pool of this many
	// MiB (0 = unbounded). Recording pins buffers, so a pool smaller
	// than the recording starves RX — the §5 RAM constraint.
	MemPoolMiB int
	// TSCErrPPM is the per-node TSC calibration error scale.
	TSCErrPPM float64
	// Sync is the clock discipline (PTP on FABRIC, PTP-over-NTP-GM
	// locally).
	Sync clock.SyncConfig

	// WrapRecorder, when set, interposes on the recorder's ingress:
	// Build attaches the returned endpoint to the switch instead of the
	// recorder itself. The fault layer uses this to splice a seeded
	// Injector in front of the capture point without the topology
	// knowing anything about fault plans.
	WrapRecorder func(eng *sim.Engine, down nic.Endpoint) nic.Endpoint
}

// PPS returns the offered packet rate.
func (e *Env) PPS() float64 {
	return packet.RateForPPS(e.FrameLen, packet.Gbps(e.RateGbps))
}

// PacketsFor returns the packet count for a recording of the given
// duration — the paper records 0.3 s windows.
func (e *Env) PacketsFor(d sim.Duration) int {
	return int(e.PPS() * d.Seconds())
}

// line rate shared by every NIC in the paper's topologies.
var line100G = packet.Gbps(100)

// --- NIC personalities -------------------------------------------------

// connectX5Local is the local testbed's bare-metal ConnectX-5: tight
// per-packet timing, sub-microsecond pull variance, and a cold-start
// cost in the low microseconds.
func connectX5Local() nic.Profile {
	return nic.Profile{
		Name:        "ConnectX-5 (bare metal)",
		LineRateBps: line100G,
		PullLatency: sim.Clamp{
			D:  sim.LogNormal{MuLog: 6.3, SigmaLog: 0.62}, // ~545ns typical
			Lo: 80, Hi: 20_000,
		},
		ColdPullExtra: sim.Clamp{
			D:  sim.LogNormal{MuLog: 7.3, SigmaLog: 0.45}, // ~1.5µs typical
			Lo: 300, Hi: 20_000,
		},
		PerPacketJitter: sim.Normal{Mu: 0, Sigma: 6},
	}
}

// connectX6Dedicated is a FABRIC dedicated smart NIC seen from a VM:
// the virtualized DMA path occasionally re-batches a burst, producing
// the bimodal IAT distribution of Figures 6/8, and cold starts cost tens
// of microseconds.
func connectX6Dedicated() nic.Profile {
	return nic.Profile{
		Name:        "ConnectX-6 (dedicated, VM)",
		LineRateBps: line100G,
		PullLatency: sim.Clamp{
			D:  sim.LogNormal{MuLog: 7.2, SigmaLog: 0.8}, // ~1.3µs typical
			Lo: 150, Hi: 60_000,
		},
		ColdPullExtra: sim.Clamp{
			D:  sim.LogNormal{MuLog: 9.6, SigmaLog: 0.9}, // ~15µs typical
			Lo: 2_000, Hi: 400_000,
		},
		PerPacketJitter: sim.Normal{Mu: 0, Sigma: 5},
		RepaceProb:      0.60,
		RepaceJitter:    sim.Normal{Mu: 0, Sigma: 520},
	}
}

// connectX6Shared is a FABRIC shared SR-IOV VF: every packet crosses
// the VF scheduler, adding moderate broadband jitter but no large
// re-pacing outliers (Figure 7).
func connectX6Shared() nic.Profile {
	return nic.Profile{
		Name:        "ConnectX-6 (shared VF)",
		LineRateBps: line100G,
		PullLatency: sim.Clamp{
			D:  sim.LogNormal{MuLog: 7.2, SigmaLog: 0.22},
			Lo: 150, Hi: 60_000,
		},
		ColdPullExtra: sim.Clamp{
			D:  sim.LogNormal{MuLog: 9.0, SigmaLog: 0.6}, // ~8µs typical
			Lo: 1_000, Hi: 200_000,
		},
		// The VF datapath inserts a scheduling delay on every packet:
		// uniform up-to-64ns, giving the broad-but-bounded IAT deltas
		// of Figure 7a (few packets within ±10 ns, small overall I).
		PerPacketJitter:  sim.Uniform{Lo: 0, Hi: 64},
		VFSwitchOverhead: sim.Clamp{D: sim.LogNormal{MuLog: 5.8, SigmaLog: 0.6}, Lo: 50, Hi: 5_000},
	}
}

// fabric80G adapts a FABRIC NIC profile for the 80 Gbps runs: at double
// the packet rate the DMA engine never idles long enough to re-batch, so
// both dedicated and shared NICs converge to the same moderate jitter
// (Figure 9, I ≈ 0.11 on both).
func fabric80G(base nic.Profile) nic.Profile {
	base.RepaceProb = 0
	base.RepaceJitter = nil
	// At 6.97 Mpps the DMA engine stays busy: burst re-batching
	// disappears and the two NIC types converge to the same pull and
	// per-packet behaviour (Figure 9a vs 9b are nearly identical).
	base.PullLatency = sim.Clamp{D: sim.LogNormal{MuLog: 7.4, SigmaLog: 1.1}, Lo: 150, Hi: 100_000}
	base.PerPacketJitter = sim.Uniform{Lo: 0, Hi: 58}
	base.ColdPullExtra = sim.Clamp{D: sim.LogNormal{MuLog: 7.8, SigmaLog: 0.5}, Lo: 500, Hi: 50_000}
	return base
}

// pktgenNIC is the generator's TX path; its noise is irrelevant because
// trials compare replays with each other, but keep it realistic.
func pktgenNIC() nic.Profile {
	return nic.Profile{
		Name:            "Pktgen TX",
		LineRateBps:     line100G,
		PullLatency:     sim.Clamp{D: sim.LogNormal{MuLog: 6.2, SigmaLog: 0.5}, Lo: 80, Hi: 5_000},
		PerPacketJitter: sim.Normal{Mu: 0, Sigma: 3},
	}
}

// --- stall models -------------------------------------------------------

// fabricStalls returns the vCPU steal model for FABRIC VMs on a
// lightly-used site: rare, tens-of-microseconds preemptions.
func fabricStalls() (gap, dur sim.Dist) {
	return sim.Exponential{MeanNs: 8e6}, // every ~8 ms
		sim.Clamp{D: sim.LogNormal{MuLog: 9.2, SigmaLog: 0.6}, Lo: 2_000, Hi: 60_000} // ~12µs
}

// noisyStalls returns the steal model with a co-located tenant
// hammering the host: frequent and longer preemptions.
func noisyStalls() (gap, dur sim.Dist) {
	return sim.Exponential{MeanNs: 1.2e6}, // every ~1.2 ms
		sim.Clamp{D: sim.LogNormal{MuLog: 10.4, SigmaLog: 0.9}, Lo: 4_000, Hi: 460_000} // ~33µs
}

// --- environments -------------------------------------------------------

// LocalSingle is §6.1: bare metal, Tofino2, one replayer at 40 Gbps.
func LocalSingle() Env {
	return Env{
		Name:                "Local Single-Replayer",
		Description:         "bare-metal ConnectX-5 through a Tofino2, one replayer, 40 Gbps",
		RateGbps:            40,
		FrameLen:            1400,
		Replayers:           1,
		Switch:              netsw.Tofino2(line100G),
		GenNIC:              pktgenNIC(),
		ReplayerNIC:         connectX5Local(),
		RecorderTimestamper: func() nic.Timestamper { return nic.E810Timestamper{ResolutionNs: 1} },
		ReplayStartJitter:   sim.Uniform{Lo: 0, Hi: 2_000},
		TSCErrPPM:           0.4,
		Sync:                clock.PTPDefault(),
	}
}

// LocalDual is §6.2: two parallel replayers, 20 Gbps each, whose
// relative replay-start slop produces burst-level reordering.
func LocalDual() Env {
	e := LocalSingle()
	e.Name = "Local Dual-Replayer"
	e.Description = "two parallel replayers at 20 Gbps each, merged at the recorder"
	e.Replayers = 2
	// Start-of-replay scheduling slop across nodes: milliseconds, the
	// scale Table 1's burst move distances imply.
	e.ReplayStartJitter = sim.Uniform{Lo: 0, Hi: 12 * sim.Millisecond}
	return e
}

// fabricDedicatedDesc and fabricSharedDesc describe the quiet FABRIC
// environments at the given offered load, so a rate change cannot leave
// a stale rate in the text.
func fabricDedicatedDesc(rateGbps float64) string {
	return fmt.Sprintf("FABRIC VMs, dedicated ConnectX-6, L2Bridge, %g Gbps", rateGbps)
}

func fabricSharedDesc(rateGbps float64) string {
	return fmt.Sprintf("FABRIC VMs, shared SR-IOV VFs, L2Bridge, %g Gbps, quiet site", rateGbps)
}

// FabricDedicated40 is §7 test 1: dedicated smart NICs at 40 Gbps.
func FabricDedicated40() Env {
	gap, dur := fabricStalls()
	return Env{
		Name:        "FABRIC Dedicated 40 Gbps 1",
		Description: fabricDedicatedDesc(40),
		RateGbps:    40,
		FrameLen:    1400,
		Replayers:   1,
		Switch:      netsw.Cisco5700(line100G),
		GenNIC:      pktgenNIC(),
		ReplayerNIC: connectX6Dedicated(),
		RecorderTimestamper: func() nic.Timestamper {
			return nic.ConnectXTimestamper{PeriodNs: 1, ConversionJitter: sim.Normal{Mu: 0, Sigma: 4}}
		},
		ReplayStartJitter: sim.Uniform{Lo: 0, Hi: 30_000},
		StallGap:          gap,
		StallDur:          dur,
		TSCErrPPM:         1.2,
		Sync:              clock.PTPDefault(),
	}
}

// FabricDedicated40Second is §7 test 3: the rerun on the same dedicated
// hardware that showed much larger latency offsets (L ~ 4×10⁻⁴).
func FabricDedicated40Second() Env {
	e := FabricDedicated40()
	e.Name = "FABRIC Dedicated 40 Gbps 2"
	e.Description = e.Description + " (rerun with larger cold-start offsets)"
	e.ReplayerNIC.ColdPullExtra = sim.Clamp{
		D:  sim.LogNormal{MuLog: 12.1, SigmaLog: 0.7}, // ~180µs typical
		Lo: 30_000, Hi: 2_000_000,
	}
	// The rerun also showed fewer packets inside ±10 ns (24–27%).
	e.ReplayerNIC.PerPacketJitter = sim.Normal{Mu: 0, Sigma: 13}
	return e
}

// FabricShared40 is §7 test 2: shared SR-IOV VFs at 40 Gbps, site quiet.
func FabricShared40() Env {
	e := FabricDedicated40()
	e.Name = "FABRIC Shared 40 Gbps"
	e.Description = fabricSharedDesc(e.RateGbps)
	e.ReplayerNIC = connectX6Shared()
	e.ReplayerQueuePkts = 8192
	return e
}

// FabricDedicated80 is the 80 Gbps dedicated run of Figure 9a.
func FabricDedicated80() Env {
	e := FabricDedicated40()
	e.Name = "FABRIC Dedicated 80 Gbps"
	e.RateGbps = 80
	e.Description = fabricDedicatedDesc(e.RateGbps)
	e.ReplayerNIC = fabric80G(connectX6Dedicated())
	return e
}

// FabricShared80 is the 80 Gbps shared run of Figure 9b.
func FabricShared80() Env {
	e := FabricShared40()
	e.Name = "FABRIC Shared 80 Gbps"
	e.RateGbps = 80
	e.Description = fabricSharedDesc(e.RateGbps)
	e.ReplayerNIC = fabric80G(connectX6Shared())
	return e
}

// FabricDedicated80Noisy is §7.1 on dedicated NICs: the co-tenant's
// iperf3 streams cannot touch a dedicated NIC, so only host-level steal
// rises — results nearly identical to the quiet 80 Gbps run.
func FabricDedicated80Noisy() Env {
	e := FabricDedicated80()
	e.Name = "FABRIC Ded. 80 Gbps Noisy"
	e.Description = "dedicated NICs with a co-located iperf3 tenant (noise cannot share the NIC)"
	// Noise traffic exists but rides its own NIC: only a whisper of
	// extra host pressure reaches the replayer (the paper found this
	// run "almost identical" to the quiet 80 Gbps test).
	e.StallGap = sim.Exponential{MeanNs: 6e6}
	return e
}

// FabricShared40Noisy is §7.1 on shared VFs at 40 Gbps: the iperf3
// streams share the replayer's physical NIC, producing contention
// delays and the paper's first observed drops.
func FabricShared40Noisy() Env {
	e := FabricShared40()
	e.Name = "FABRIC Shd. 40 Gbps Noisy"
	e.Description = "shared VFs with 8 iperf3 TCP streams on the same physical NIC"
	e.Noise = true
	e.NoiseFlows = 8
	e.NoiseQueuePkts = 4096
	e.ReplayerQueuePkts = 1600
	// Under contention the physical scheduler interleaves the two VFs
	// at packet granularity: competing frames land between the
	// replay's packets, perturbing IATs by whole serialization times —
	// the mechanism behind Figure 10's I ≈ 0.5 and the first drops.
	e.ReplayerNIC.PacketInterleave = true
	e.ReplayerNIC.VFSwitchOverhead = sim.Uniform{Lo: 10, Hi: 140}
	gap, dur := noisyStalls()
	e.StallGap, e.StallDur = gap, dur
	return e
}

// AllEnvironments returns the nine Table 2 rows in presentation order.
func AllEnvironments() []Env {
	return []Env{
		LocalSingle(),
		LocalDual(),
		FabricDedicated40(),
		FabricShared40(),
		FabricDedicated40Second(),
		FabricDedicated80(),
		FabricShared80(),
		FabricDedicated80Noisy(),
		FabricShared40Noisy(),
	}
}
