// Command benchreport measures the PR's performance envelope and writes
// it as a machine-readable JSON artifact (BENCH_PR10.json at the repo
// root). It exercises these surfaces:
//
//   - metrics.Compare on a 200k-packet trace pair — ns/op, B/op,
//     allocs/op and pkts/s, with the pre-overhaul baseline recorded for
//     the allocation-reduction claim;
//   - the streaming κ engine (shards=4) on a 50k-packet pair;
//   - the Table 2 all-environments fan-out on the parallel trial
//     scheduler at widths 1/2/4/8, reporting wall-clock and speedup
//     versus the width-1 sequential baseline;
//   - the parallel-in-space simulation core: one experiment run with
//     its topology partitioned across 1/2/4/8 event domains, reporting
//     pkts/s and speedup versus the single-engine baseline (domains=1
//     runs the plain sequential engine) plus an identity check on the
//     resulting κ;
//   - the cross-domain handoff path (actor Send → SPSC ring →
//     Engine.Inject), reporting ns and allocs per crossing — steady
//     state must not allocate;
//   - the choird consistency service (internal/serve) under 1/8/64
//     concurrent uploading clients, reporting served-sessions/s,
//     admitted-bytes/s and the process peak RSS after each level (RSS
//     is a process-lifetime high-water mark, so the levels are
//     cumulative);
//   - the application workload library (internal/workload): each
//     catalogue app emitting a fixed packet budget through a 10G NIC
//     queue into a sink, reporting emitted pkts/s of simulated
//     application traffic (model evaluation + event scheduling cost);
//   - the differentiation detector (experiments.Differentiate): one
//     neutral-vs-throttled voip pair end to end — two full
//     record/replay protocols plus the cross-arm κ decomposition —
//     reporting wall time and asserting the throttle was detected.
//
// Speedups are honest host measurements: the artifact records num_cpu
// and gomaxprocs so a single-core CI container's ~1.0x is read as what
// it is. Differential tests (internal/experiments, internal/metrics,
// internal/serve) separately prove the parallel and served results are
// bit-identical, so the numbers are free of correctness caveats on any
// host.
//
//	go run ./cmd/benchreport -out BENCH_PR10.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/parallel"
	"repro/internal/pcap"
	"repro/internal/psim"
	"repro/internal/serve"
	"repro/internal/shaper"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

// seedAllocsPerOp and seedNsPerOp are BenchmarkMetricsCompare measured
// on the pre-overhaul tree (same 200k-packet workload, same host class):
// the scratch-arena work in internal/metrics is judged against them.
const (
	seedAllocsPerOp = 2128
	seedNsPerOp     = 192_000_000
)

type benchLine struct {
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	PktsPerSec  float64 `json:"pkts_per_sec,omitempty"`
}

type speedupLine struct {
	Workers   int     `json:"workers"`
	WallMs    float64 `json:"wall_ms"`
	BusyMs    float64 `json:"busy_ms"`
	Speedup   float64 `json:"speedup_vs_workers1"`
	KappaSum  float64 `json:"kappa_sum"` // integrity check: identical across widths
	Identical bool    `json:"identical_to_sequential"`
}

type report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	MetricsCompare struct {
		benchLine
		Packets           int     `json:"packets"`
		SeedAllocsPerOp   int64   `json:"seed_allocs_per_op"`
		SeedNsPerOp       int64   `json:"seed_ns_per_op"`
		AllocReductionPct float64 `json:"alloc_reduction_pct"`
		NsPerOpReduction  float64 `json:"ns_per_op_reduction_pct"`
	} `json:"metrics_compare"`

	StreamKappa struct {
		benchLine
		Packets int `json:"packets"`
		Shards  int `json:"shards"`
	} `json:"stream_kappa"`

	Table2Parallel []speedupLine `json:"table2_parallel"`

	PsimShards []psimLine `json:"psim_shards"`

	PsimHandoff struct {
		benchLine
		HandoffsPerSec float64 `json:"handoffs_per_sec"`
	} `json:"psim_handoff"`

	ChoirdService []serviceLine `json:"choird_service"`

	WorkloadEmit []workloadEmitLine `json:"workload_emit"`

	DiffDetect diffDetectLine `json:"diffdetect"`
}

// workloadEmitLine is one catalogue app driving its packet budget into
// a NIC queue: the cost of simulating the application model itself.
type workloadEmitLine struct {
	App        string  `json:"app"`
	Packets    int     `json:"packets"`
	WallMs     float64 `json:"wall_ms"`
	PktsPerSec float64 `json:"pkts_per_sec"`
	// SimSeconds is how much simulated time the budget spanned — apps
	// with think times and playback buffers stretch far past wire time.
	SimSeconds float64 `json:"sim_seconds"`
}

// diffDetectLine is one end-to-end differentiation experiment: two full
// record/replay protocols (neutral and throttled arms) plus the
// cross-arm κ decomposition.
type diffDetectLine struct {
	Workload string  `json:"workload"`
	Packets  int     `json:"packets"`
	WallMs   float64 `json:"wall_ms"`
	Detected bool    `json:"detected"`
	Flagged  int     `json:"flagged_components"`
}

// psimLine is one experiment run with the simulated topology
// partitioned across Domains event domains. Domains=1 is the plain
// sequential engine; pkts/s counts every packet the testbed handles
// (one recording plus Runs replays). Kappa must be identical across
// rows — the sharded core's contract is bit-identity, not approximate
// equivalence.
type psimLine struct {
	Domains    int     `json:"domains"`
	WallMs     float64 `json:"wall_ms"`
	PktsPerSec float64 `json:"pkts_per_sec"`
	Speedup    float64 `json:"speedup_vs_domains1"`
	Kappa      float64 `json:"kappa"`
	Identical  bool    `json:"identical_to_sequential"`
}

// serviceLine is the service envelope at one client-concurrency level.
type serviceLine struct {
	Concurrency         int     `json:"concurrent_sessions"`
	Sessions            int     `json:"sessions"`
	WallMs              float64 `json:"wall_ms"`
	SessionsPerSec      float64 `json:"served_sessions_per_sec"`
	AdmittedBytesPerSec float64 `json:"admitted_bytes_per_sec"`
	// PeakRSSBytes is the process high-water mark measured after this
	// level completed — monotone across levels by construction.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

func synthTrace(seed int64, n int) *trace.Trace {
	eng := sim.NewEngine(seed)
	rng := eng.Rand("benchreport")
	tr := trace.New("t", n)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += 284 + sim.Duration(rng.Int63n(20))
		tr.Append(&packet.Packet{Tag: packet.Tag{Seq: uint64(i)}, Kind: packet.KindData, FrameLen: 1400}, at)
	}
	return tr
}

// benchHandoff is the cross-domain handoff microbenchmark: two domains
// ping-ponging pre-bound callbacks through the router, so each op is
// one actor Send → ring push → drain → Inject → heap insert. It
// mirrors internal/psim's BenchmarkHandoff.
func benchHandoff(tb *testing.B) {
	const la = 100
	p := psim.New(1, 2, nil)
	e0, e1 := p.Domain(0), p.Domain(1)
	p.Link(e0, e1, la)
	p.Link(e1, e0, la)
	a0, a1 := e0.NewActor(), e1.NewActor()
	remaining := tb.N
	var ping, pong func()
	ping = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		a0.Send(e1, a0.Now()+la, pong)
	}
	pong = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		a1.Send(e0, a1.Now()+la, ping)
	}
	a0.Post(0, ping)
	tb.ReportAllocs()
	tb.ResetTimer()
	p.RunUntil(sim.Time(int64(tb.N+2) * la))
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output path")
	table2Packets := flag.Int("table2-packets", 20_000, "recorded packets per Table 2 environment")
	psimPackets := flag.Int("psim-packets", 20_000, "recorded packets for the sharded-core sweep")
	flag.Parse()

	var rep report
	rep.Date = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.NumCPU = runtime.NumCPU()
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)

	// --- metrics.Compare ---
	const nCmp = 200_000
	a, b := synthTrace(1, nCmp), synthTrace(2, nCmp)
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, err := metrics.Compare(a, b, metrics.Options{}); err != nil {
				tb.Fatal(err)
			}
		}
	})
	rep.MetricsCompare.NsPerOp = r.NsPerOp()
	rep.MetricsCompare.BytesPerOp = r.AllocedBytesPerOp()
	rep.MetricsCompare.AllocsPerOp = r.AllocsPerOp()
	rep.MetricsCompare.PktsPerSec = float64(2*nCmp) / (float64(r.NsPerOp()) / 1e9)
	rep.MetricsCompare.Packets = nCmp
	rep.MetricsCompare.SeedAllocsPerOp = seedAllocsPerOp
	rep.MetricsCompare.SeedNsPerOp = seedNsPerOp
	rep.MetricsCompare.AllocReductionPct = 100 * (1 - float64(r.AllocsPerOp())/float64(seedAllocsPerOp))
	rep.MetricsCompare.NsPerOpReduction = 100 * (1 - float64(r.NsPerOp())/float64(seedNsPerOp))

	// --- streaming κ ---
	const nStream = 50_000
	sa, sb := synthTrace(11, nStream), synthTrace(12, nStream)
	const shards = 4
	rs := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			cfg := stream.Config{Window: 50 * sim.Microsecond, Shards: shards, DiscardWindows: true}
			sum, err := stream.Run(stream.NewTraceSource(sa), stream.NewTraceSource(sb), cfg)
			if err != nil {
				tb.Fatal(err)
			}
			if sum.Aggregate.Windows == 0 {
				tb.Fatal("no windows scored")
			}
		}
	})
	rep.StreamKappa.NsPerOp = rs.NsPerOp()
	rep.StreamKappa.BytesPerOp = rs.AllocedBytesPerOp()
	rep.StreamKappa.AllocsPerOp = rs.AllocsPerOp()
	rep.StreamKappa.PktsPerSec = float64(2*nStream) / (float64(rs.NsPerOp()) / 1e9)
	rep.StreamKappa.Packets = nStream
	rep.StreamKappa.Shards = shards

	// --- Table 2 fan-out across scheduler widths ---
	envs := testbed.AllEnvironments()
	table2 := func(workers int) (wall, busy time.Duration, kappaSum float64, err error) {
		pool := parallel.New(workers)
		cfg := experiments.TrialConfig{Packets: *table2Packets, Runs: 2, Seed: 1}
		kappas := make([]float64, len(envs))
		start := time.Now()
		err = pool.Do(len(envs), func(row int) error {
			res, rerr := experiments.Run(envs[row], cfg)
			if rerr != nil {
				return rerr
			}
			kappas[row] = res.Mean.Kappa
			return nil
		})
		wall = time.Since(start)
		busy = pool.Stats().Busy
		for _, k := range kappas {
			kappaSum += k
		}
		return
	}
	// Warm-up run so the first width doesn't pay one-time costs.
	if _, _, _, err := table2(1); err != nil {
		fatal(err)
	}
	var baseWall time.Duration
	var baseKappa float64
	for _, workers := range []int{1, 2, 4, 8} {
		wall, busy, kappaSum, err := table2(workers)
		if err != nil {
			fatal(err)
		}
		line := speedupLine{
			Workers:  workers,
			WallMs:   float64(wall.Microseconds()) / 1e3,
			BusyMs:   float64(busy.Microseconds()) / 1e3,
			KappaSum: kappaSum,
		}
		if workers == 1 {
			baseWall, baseKappa = wall, kappaSum
			line.Speedup = 1
			line.Identical = true
		} else {
			line.Speedup = float64(baseWall) / float64(wall)
			line.Identical = kappaSum == baseKappa
		}
		rep.Table2Parallel = append(rep.Table2Parallel, line)
		fmt.Fprintf(os.Stderr, "table2 workers=%d wall=%v busy=%v speedup=%.2fx identical=%v\n",
			workers, wall.Round(time.Millisecond), busy.Round(time.Millisecond), line.Speedup, line.Identical)
	}

	// --- parallel-in-space core across domain counts ---
	// One experiment, its topology partitioned across 1/2/4/8 event
	// domains. Domains=1 takes the plain sequential-engine path, so the
	// first row is the true baseline. On a single-core host the sharded
	// rows honestly report ~1.0x or below (synchronization overhead with
	// no parallel hardware); the identity column is the claim that
	// matters everywhere.
	psimEnv := testbed.LocalDual()
	psimCfg := experiments.TrialConfig{Packets: *psimPackets, Runs: 2, Seed: 1}
	psimRun := func(domains int) (time.Duration, *experiments.RunResult, error) {
		cfg := psimCfg
		if domains > 1 {
			cfg.Shards = domains
		}
		start := time.Now()
		res, err := experiments.Run(psimEnv, cfg)
		return time.Since(start), res, err
	}
	if _, _, err := psimRun(1); err != nil { // warm-up
		fatal(err)
	}
	var psimBaseWall time.Duration
	var psimBase *experiments.RunResult
	psimPkts := float64(*psimPackets * (1 + psimCfg.Runs))
	for _, domains := range []int{1, 2, 4, 8} {
		wall, res, err := psimRun(domains)
		if err != nil {
			fatal(err)
		}
		line := psimLine{
			Domains:    domains,
			WallMs:     float64(wall.Microseconds()) / 1e3,
			PktsPerSec: psimPkts / wall.Seconds(),
			Kappa:      res.Mean.Kappa,
		}
		if domains == 1 {
			psimBaseWall, psimBase = wall, res
			line.Speedup = 1
			line.Identical = true
		} else {
			line.Speedup = float64(psimBaseWall) / float64(wall)
			line.Identical = reflect.DeepEqual(res.Results, psimBase.Results) &&
				reflect.DeepEqual(res.Traces, psimBase.Traces)
			if !line.Identical {
				fatal(fmt.Errorf("sharded core domains=%d diverged from sequential", domains))
			}
		}
		rep.PsimShards = append(rep.PsimShards, line)
		fmt.Fprintf(os.Stderr, "psim domains=%d wall=%v %.0f pkts/s speedup=%.2fx identical=%v\n",
			domains, wall.Round(time.Millisecond), line.PktsPerSec, line.Speedup, line.Identical)
	}

	// --- cross-domain handoff path ---
	rh := testing.Benchmark(benchHandoff)
	rep.PsimHandoff.NsPerOp = rh.NsPerOp()
	rep.PsimHandoff.BytesPerOp = rh.AllocedBytesPerOp()
	rep.PsimHandoff.AllocsPerOp = rh.AllocsPerOp()
	rep.PsimHandoff.HandoffsPerSec = 1e9 / float64(rh.NsPerOp())
	fmt.Fprintf(os.Stderr, "psim handoff %d ns/op %d allocs/op\n", rh.NsPerOp(), rh.AllocsPerOp())
	if rh.AllocsPerOp() > 2 {
		fatal(fmt.Errorf("handoff path allocates %d allocs/op; steady state must stay at 0 (budget 2)", rh.AllocsPerOp()))
	}

	// --- application workload emit throughput ---
	const nEmit = 30_000
	for _, app := range workload.Names() {
		eng := sim.NewEngine(1)
		nc := nic.New(eng, nic.Profile{Name: "bench", LineRateBps: packet.Gbps(10)}, "bench")
		q := nc.NewQueue(1 << 20)
		q.Connect(devNull{}, 0)
		wr, err := workload.Start(eng, q, app, workload.Config{Count: nEmit})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for !wr.Done() {
			eng.RunUntil(eng.Now() + sim.Second)
		}
		wall := time.Since(start)
		line := workloadEmitLine{
			App:        app,
			Packets:    nEmit,
			WallMs:     float64(wall.Microseconds()) / 1e3,
			PktsPerSec: float64(nEmit) / wall.Seconds(),
			SimSeconds: sim.Duration(wr.FinishedAt()).Seconds(),
		}
		rep.WorkloadEmit = append(rep.WorkloadEmit, line)
		fmt.Fprintf(os.Stderr, "workload %s: %d pkts in %v host (%.0f pkts/s, %.2fs simulated)\n",
			app, nEmit, wall.Round(time.Millisecond), line.PktsPerSec, line.SimSeconds)
	}

	// --- differentiation detector end to end ---
	const nDiff = 2000
	dstart := time.Now()
	dres, err := experiments.Differentiate(testbed.LocalSingle(), experiments.DiffConfig{
		Trial:    experiments.TrialConfig{Packets: nDiff, Runs: 2, Seed: 11, Workload: "voip"},
		Shaper:   shaper.Config{QueuePkts: 64},
		RateFrac: 0.5,
	})
	if err != nil {
		fatal(err)
	}
	if !dres.Differentiated {
		fatal(fmt.Errorf("benchmark throttle went undetected: %+v", dres.Components))
	}
	dwall := time.Since(dstart)
	rep.DiffDetect.Workload = "voip"
	rep.DiffDetect.Packets = nDiff
	rep.DiffDetect.WallMs = float64(dwall.Microseconds()) / 1e3
	rep.DiffDetect.Detected = dres.Differentiated
	for _, c := range dres.Components {
		if c.Flagged {
			rep.DiffDetect.Flagged++
		}
	}
	fmt.Fprintf(os.Stderr, "diffdetect voip: %v wall, detected=%v (%d components flagged)\n",
		dwall.Round(time.Millisecond), rep.DiffDetect.Detected, rep.DiffDetect.Flagged)

	// --- choird service envelope ---
	for _, conc := range []int{1, 8, 64} {
		line, err := benchService(conc)
		if err != nil {
			fatal(err)
		}
		rep.ChoirdService = append(rep.ChoirdService, line)
		fmt.Fprintf(os.Stderr, "choird conc=%d sessions=%d wall=%.0fms %.1f sessions/s %.1f MiB/s admitted peakRSS=%.1f MiB\n",
			line.Concurrency, line.Sessions, line.WallMs, line.SessionsPerSec,
			line.AdmittedBytesPerSec/(1<<20), float64(line.PeakRSSBytes)/(1<<20))
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (metrics.Compare: %d allocs/op, −%.1f%% vs seed)\n",
		*out, rep.MetricsCompare.AllocsPerOp, rep.MetricsCompare.AllocReductionPct)
}

// benchService drives an in-process choird (internal/serve behind a
// real HTTP listener) with conc uploading clients, each posting and
// polling sessions over a 3k-packet capture pair, and reports the
// service throughput plus the process peak RSS after the level.
func benchService(conc int) (serviceLine, error) {
	var line serviceLine
	dir, err := os.MkdirTemp("", "benchreport-choird")
	if err != nil {
		return line, err
	}
	defer os.RemoveAll(dir)

	// Fixture pair on disk, then in memory for the multipart bodies.
	ta, tb := synthTrace(21, 3000), synthTrace(22, 3000)
	pa := filepath.Join(dir, "A.pcap")
	pb := filepath.Join(dir, "B.pcap")
	if err := pcap.WriteFile(pa, ta, 0); err != nil {
		return line, err
	}
	if err := pcap.WriteFile(pb, tb, 0); err != nil {
		return line, err
	}
	rawA, err := os.ReadFile(pa)
	if err != nil {
		return line, err
	}
	rawB, err := os.ReadFile(pb)
	if err != nil {
		return line, err
	}

	srv, err := serve.New(serve.Config{
		Dir:          filepath.Join(dir, "state"),
		GlobalBudget: 1 << 30,
		TenantBudget: 1 << 30,
		MaxUpload:    1 << 28,
		MaxSessions:  2 * conc,
		Window:       50 * sim.Microsecond,
	})
	if err != nil {
		return line, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := func() (*bytes.Buffer, string, error) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, p := range []struct {
			field string
			data  []byte
		}{{"a", rawA}, {"b", rawB}} {
			fw, err := mw.CreateFormFile(p.field, p.field+".pcap")
			if err != nil {
				return nil, "", err
			}
			if _, err := fw.Write(p.data); err != nil {
				return nil, "", err
			}
		}
		return &buf, mw.FormDataContentType(), mw.Close()
	}

	sessions := 4 * conc
	perClient := sessions / conc
	var admitted int64
	var mu sync.Mutex
	errCh := make(chan error, conc)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				buf, ctype, err := body()
				if err != nil {
					errCh <- err
					return
				}
				n := int64(buf.Len())
				resp, err := http.Post(ts.URL+"/v1/sessions?tenant="+tenant, ctype, buf)
				if err != nil {
					errCh <- err
					return
				}
				var v struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil || v.ID == "" {
					errCh <- fmt.Errorf("upload (%s): status %d, decode %v", tenant, resp.StatusCode, err)
					return
				}
				mu.Lock()
				admitted += n
				mu.Unlock()
				for {
					r, err := http.Get(ts.URL + "/v1/sessions/" + v.ID + "/result")
					if err != nil {
						errCh <- err
						return
					}
					code := r.StatusCode
					r.Body.Close()
					if code == http.StatusOK {
						break
					}
					if code != http.StatusAccepted {
						errCh <- fmt.Errorf("session %s: HTTP %d", v.ID, code)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(fmt.Sprintf("bench%02d", c))
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errCh:
		return line, err
	default:
	}

	line.Concurrency = conc
	line.Sessions = sessions
	line.WallMs = float64(wall.Microseconds()) / 1e3
	line.SessionsPerSec = float64(sessions) / wall.Seconds()
	line.AdmittedBytesPerSec = float64(admitted) / wall.Seconds()
	line.PeakRSSBytes, _ = obs.PeakRSSBytes()
	return line, nil
}

// devNull sinks workload packets at the end of the bench NIC queue.
type devNull struct{}

func (devNull) Receive(*packet.Packet, sim.Time) {}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
	os.Exit(1)
}
