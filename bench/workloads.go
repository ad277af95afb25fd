package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/consistency"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fault/harness"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// errWrong marks an op that completed but whose output differs from
// the reference; it counts as failed exactly like an op that errored.
var errWrong = errors.New("output differs from reference")

// env is what the workloads share.
type env struct {
	root    string // fixtures and service state live here; removed on exit
	seed    int64
	scale   int // packet counts are divided by this: 1 in a benchmark run, 20 in the smoke test
	clients int // closed-loop serve clients, min(2, GOMAXPROCS)
}

// series collects per-op counts of the traced run; a per-layer count
// is the median of its series.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// workload is one user path over fixed inputs.
type workload interface {
	// setup generates the inputs from the seed, computes the reference
	// and runs one checked warm-up op. It may be called again after
	// close, and then rebuilds everything.
	setup() error
	// ready does untimed housekeeping before an op.
	ready() error
	// op runs the user-visible call once and checks its output. With a
	// tracer it runs the same call under the span whole() names, then
	// each layer's public functions under spans of their own, and adds
	// the layers' counts to s.
	op(tr *tracer, s series) error
	// whole names the span around the user-visible call.
	whole() string
	// packets is the number of packets one op processes.
	packets() int
	// fold turns the traced run's spans and counts into this workload's
	// per-layer metrics. Layers it does not go through stay 0.
	fold(tr *tracer, s series, m map[string]float64)
	// footprint is the bytes of fixtures plus peak live state on disk.
	footprint() int64
	close() error
}

// spec names a workload, says why it exists, and builds it.
type spec struct {
	name, why string
	build     func(e *env) workload
}

// The plans that turn capture A into capture B. sortedPlan keeps order
// (the plan's monotone clamp), so O = 0: the single-replayer shape.
// reorderedPlan moves ~30 % of packets by 20 µs ≈ 70 positions at the
// 284 ns pacing: a bounded-displacement permutation, the dual-replayer
// shape.
var (
	sortedPlan    = fault.Plan{Drop: 0.001, Jitter: 20}
	reorderedPlan = fault.Plan{Drop: 0.01, Dup: 0.005, Reorder: 0.3, ReorderDelay: 20 * sim.Microsecond}
	uploadPlan    = fault.Plan{Reorder: 0.05, Drop: 0.01}
)

const streamWindow = 100 * sim.Microsecond

var specs = []spec{
	{"report_sorted_1400", "50k-packet pair of 1400 B frames in order: pcap decode does ~70 % of the work and the ordering code none, so a decode gain shows here and an ordering gain must not",
		func(e *env) workload {
			return &reportWL{e: e, dir: "report_sorted_1400", n: 50_000, frameLen: 1400, plan: sortedPlan, ordered: true}
		}},
	{"report_reordered_64", "200k-packet pair of 64 B frames, 30 % moved by a bounded displacement: key matching, LIS and the edit script do ~60 % of the work and decode ~35 %",
		func(e *env) workload {
			return &reportWL{e: e, dir: "report_reordered_64", n: 200_000, frameLen: 64, plan: reorderedPlan}
		}},
	{"stream_windowed", "the reordered pair through the streaming engine (ingest, 2 shards, merge): the same score computed in bounded memory by goroutines, so a batch-only gain or a per-window allocation shows here alone",
		func(e *env) workload { return &streamWL{e: e, n: 200_000} }},
	{"trial_seq", "trial config to recorded trace on the sequential engine: event loop, nic, switch and recorder do ~80 % of the work and the score ~20 %",
		func(e *env) workload { return &trialWL{e: e, shards: 1} }},
	{"trial_sharded", "the same trial on the 2-domain parallel core: same components, other driver, so an engine change that helps one and hurts the other shows",
		func(e *env) workload { return &trialWL{e: e, shards: 2} }},
	{"serve_upload", "HTTP upload to served report, 2 closed-loop clients: admission, fsynced spool and journal take ~60 %, compare and render ~20 % each; the only workload where the service does the work",
		func(e *env) workload { return &serveWL{e: e} }},
}

// genPair builds capture A (n uniquely tagged frames of frameLen bytes
// paced at ~284 ns) and B = plan applied to A, both from the seed.
func genPair(e *env, n, frameLen int, plan fault.Plan) (a, b *trace.Trace) {
	a = harness.Baseline("a", max(n/e.scale, 64), uint64(e.seed))
	for _, p := range a.Packets {
		p.FrameLen = frameLen // Baseline hardcodes 1400; the packets are ours until written
	}
	plan.Seed = uint64(e.seed)
	b = plan.Apply(a)
	b.Name = "b"
	return a, b
}

// writePair writes both captures under dir and returns their paths and
// total size.
func writePair(dir string, a, b *trace.Trace) (pa, pb string, size int64, err error) {
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	pa, pb = filepath.Join(dir, "a.pcap"), filepath.Join(dir, "b.pcap")
	for _, f := range []struct {
		path string
		tr   *trace.Trace
	}{{pa, a}, {pb, b}} {
		if err = pcap.WriteFile(f.path, f.tr, 0); err != nil {
			return
		}
		st, serr := os.Stat(f.path)
		if serr != nil {
			return pa, pb, size, serr
		}
		size += st.Size()
	}
	return
}

// tagSetCounts is the harness's own U arithmetic: packets are matched
// as a multiset of tags, independent of internal/metrics' key matching.
func tagSetCounts(a, b *trace.Trace) (common, onlyA, onlyB int) {
	left := make(map[packet.Tag]int, a.Len())
	for _, p := range a.Packets {
		left[p.Tag]++
	}
	for _, p := range b.Packets {
		if left[p.Tag] > 0 {
			left[p.Tag]--
			common++
		}
	}
	return common, a.Len() - common, b.Len() - common
}

var (
	reCounts = regexp.MustCompile(`\((\d+) common, (\d+) only-A, (\d+) only-B\)`)
	reMoved  = regexp.MustCompile(`O \(ordering\)\s+= (\S+)\s+\((\d+) packets moved`)
)

// checkReport verifies a rendered report against the generated traces:
// the packet-set counts must equal the tag-set arithmetic, and the
// ordering line must say 0 moved exactly when B keeps A's order.
func checkReport(rep []byte, a, b *trace.Trace, ordered bool) error {
	c := reCounts.FindSubmatch(rep)
	m := reMoved.FindSubmatch(rep)
	if c == nil || m == nil {
		return fmt.Errorf("report has no U or O line: %w", errWrong)
	}
	common, onlyA, onlyB := tagSetCounts(a, b)
	if got := fmt.Sprintf("%s %s %s", c[1], c[2], c[3]); got != fmt.Sprintf("%d %d %d", common, onlyA, onlyB) {
		return fmt.Errorf("report counts %s, tag sets give %d %d %d: %w", got, common, onlyA, onlyB, errWrong)
	}
	o, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return fmt.Errorf("report O %q: %w", m[1], errWrong)
	}
	moved := string(m[2]) != "0"
	if ordered == (o > 0) || ordered == moved {
		return fmt.Errorf("report O = %v with %s moved, ordered input = %v: %w", o, m[2], ordered, errWrong)
	}
	return nil
}

// report is the cmd/consistency call on the pair writePair wrote.
func report(w io.Writer, pa, pb string) error {
	return consistency.Report(w, consistency.Input{Path: pa, Name: "a.pcap"}, consistency.Input{Path: pb, Name: "b.pcap"}, consistency.Options{WithinNs: 10})
}

// mallocs returns the process's cumulative allocation count.
func mallocs() float64 {
	objects, _ := allocated()
	return objects
}

// ---- pcap pair → κ report ----

type reportWL struct {
	e        *env
	dir      string
	n        int
	frameLen int
	plan     fault.Plan
	ordered  bool

	pa, pb string
	want   []byte // the reference report
	buf    bytes.Buffer
	pkts   int
	bytes  int64
}

func (w *reportWL) whole() string    { return "consistency.report" }
func (w *reportWL) packets() int     { return w.pkts }
func (w *reportWL) footprint() int64 { return w.bytes }
func (w *reportWL) ready() error     { return nil }
func (w *reportWL) close() error     { return nil }

func (w *reportWL) setup() error {
	a, b := genPair(w.e, w.n, w.frameLen, w.plan)
	var err error
	if w.pa, w.pb, w.bytes, err = writePair(filepath.Join(w.e.root, w.dir), a, b); err != nil {
		return err
	}
	w.pkts = a.Len() + b.Len()
	w.want = nil
	if err := w.render(); err != nil {
		return err
	}
	if err := checkReport(w.buf.Bytes(), a, b, w.ordered); err != nil {
		return err
	}
	w.want = bytes.Clone(w.buf.Bytes())
	return nil
}

func (w *reportWL) render() error {
	w.buf.Reset()
	return report(&w.buf, w.pa, w.pb)
}

func (w *reportWL) op(tr *tracer, s series) error {
	whole0 := mallocs()
	sp := tr.start(w.whole(), -1)
	err := w.render()
	tr.end(sp)
	if err != nil {
		return err
	}
	if !bytes.Equal(w.buf.Bytes(), w.want) {
		return errWrong
	}
	if tr == nil {
		return nil
	}

	// The same call, taken apart along its public seams.
	m0 := mallocs()
	sp = tr.start("pcap.decode", -1)
	ta, err := pcap.ReadAnyFile(w.pa)
	if err != nil {
		return err
	}
	tb, err := pcap.ReadAnyFile(w.pb)
	tr.end(sp)
	if err != nil {
		return err
	}
	m1 := mallocs()
	sp = tr.start("trace.normalize", -1)
	na, nb := ta.DataOnly().Normalize(), tb.DataOnly().Normalize()
	tr.end(sp)
	m2 := mallocs()
	sp = tr.start("metrics.compare", -1)
	res, err := metrics.Compare(na, nb, metrics.Options{KeepDeltas: true})
	tr.end(sp)
	if err != nil {
		return err
	}
	m3 := mallocs()
	sp = tr.start("consistency.render", -1)
	fmt.Fprintf(io.Discard, "%.2f %.6g %.6g %.6g %.6g %.4f", stats.PercentWithin(res.IATDeltas, 10), res.U, res.O, res.L, res.I, res.Kappa)
	tr.end(sp)
	m4 := mallocs()
	sp = tr.start("metrics.tracesums", -1)
	_, err = metrics.TraceSums(na, nb)
	tr.end(sp)
	if err != nil {
		return err
	}
	// Times say whether the parts add up to the call; allocations say
	// whether the parts are the call, and say it without noise.
	s.add("consistency.alloc_gap_pct", 100*math.Abs((m0-whole0)-(m4-m0))/(m0-whole0))
	s.add("pcap.allocs_per_pkt", (m1-m0)/float64(w.pkts))
	s.add("metrics.compare_allocs", m3-m2)
	s.add("metrics.moved_pkts", float64(res.MovedPackets))
	s.add("metrics.common_pkts", float64(res.Common))
	return nil
}

func (w *reportWL) fold(tr *tracer, s series, m map[string]float64) {
	report := median(tr.perOpMs(w.whole(), false))
	decode := median(tr.perOpMs("pcap.decode", false))
	normalize := median(tr.perOpMs("trace.normalize", false))
	compare := median(tr.perOpMs("metrics.compare", false))
	render := median(tr.perOpMs("consistency.render", false))
	m["consistency.report_ms"] = report
	m["pcap.decode_ms"] = decode
	m["trace.normalize_ms"] = normalize
	m["metrics.compare_ms"] = compare
	m["consistency.render_ms"] = render
	m["metrics.tracesums_ms"] = median(tr.perOpMs("metrics.tracesums", false))
	if decode > 0 {
		m["pcap.decode_ns_per_pkt"] = decode * 1e6 / float64(w.pkts)
		m["pcap.decode_mb_per_s"] = float64(w.bytes) / 1e6 / (decode / 1e3)
	}
	m["metrics.compare_ns_per_pkt"] = compare * 1e6 / float64(w.pkts)
	for _, name := range []string{"consistency.alloc_gap_pct", "pcap.allocs_per_pkt", "metrics.compare_allocs", "metrics.moved_pkts", "metrics.common_pkts"} {
		m[name] = median(s[name])
	}
	m["trace.layers_ms"] = decode + normalize + compare + render
	if report > 0 {
		m["consistency.budget_gap_pct"] = 100 * math.Abs(report-m["trace.layers_ms"]) / report
	}
}

// ---- pcap pair → windowed κ, streaming ----

type streamWL struct {
	e *env
	n int

	a, b   *trace.Trace // the generated captures, for the engine-only layer run
	pa, pb string
	want   []metrics.WindowResult // batch reference, computed once in setup
	pkts   int
	bytes  int64
}

func (w *streamWL) whole() string    { return "stream.run" }
func (w *streamWL) packets() int     { return w.pkts }
func (w *streamWL) footprint() int64 { return w.bytes }
func (w *streamWL) ready() error     { return nil }
func (w *streamWL) close() error     { return nil }

func (w *streamWL) setup() error {
	w.a, w.b = genPair(w.e, w.n, 64, reorderedPlan)
	var err error
	if w.pa, w.pb, w.bytes, err = writePair(filepath.Join(w.e.root, "stream_windowed"), w.a, w.b); err != nil {
		return err
	}
	w.pkts = w.a.Len() + w.b.Len()
	if w.want, err = metrics.CompareWindowed(w.a, w.b, streamWindow, metrics.Options{}); err != nil {
		return err
	}
	_, err = w.run(nil, nil)
	return err
}

func (w *streamWL) config(o *obs.Obs, onWindow func(metrics.WindowResult)) stream.Config {
	return stream.Config{Window: streamWindow, Shards: 2, DataOnly: true, DiscardWindows: true, OnWindow: onWindow, Obs: o}
}

// sameWindow is bit-equality on every field the streaming engine and
// the batch path both fill.
func sameWindow(g, w metrics.WindowResult) bool {
	a, b := g.Result, w.Result
	return g.Start == w.Start && g.End == w.End &&
		a.Common == b.Common && a.OnlyA == b.OnlyA && a.OnlyB == b.OnlyB && a.MovedPackets == b.MovedPackets &&
		a.U == b.U && a.O == b.O && a.L == b.L && a.I == b.I && a.Kappa == b.Kappa && a.PctIATWithin10 == b.PctIATWithin10
}

// run streams the two capture files (or, with src set, in-memory
// sources) through the engine and checks every window against the
// batch reference as it closes.
func (w *streamWL) run(o *obs.Obs, src []stream.Source) (*stream.Summary, error) {
	if src == nil {
		sa, err := pcap.OpenStream(w.pa)
		if err != nil {
			return nil, err
		}
		defer sa.Close()
		sb, err := pcap.OpenStream(w.pb)
		if err != nil {
			return nil, err
		}
		defer sb.Close()
		src = []stream.Source{sa, sb}
	}
	next, wrong := 0, 0
	sum, err := stream.Run(src[0], src[1], w.config(o, func(g metrics.WindowResult) {
		if next >= len(w.want) || !sameWindow(g, w.want[next]) {
			wrong++
		}
		next++
	}))
	if err != nil {
		return nil, err
	}
	if wrong > 0 || next != len(w.want) || sum.PacketsA != int64(w.a.Len()) || sum.PacketsB != int64(w.b.Len()) {
		return nil, fmt.Errorf("%d of %d windows differ from CompareWindowed (%d expected): %w", wrong, next, len(w.want), errWrong)
	}
	return sum, nil
}

// drain reads one capture to its end through pcap.Stream alone.
func drain(path string) error {
	s, err := pcap.OpenStream(path)
	if err != nil {
		return err
	}
	defer s.Close()
	for {
		if _, _, err := s.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

func (w *streamWL) op(tr *tracer, s series) error {
	if tr == nil {
		_, err := w.run(nil, nil)
		return err
	}
	o := obs.New()
	m0, c0 := mallocs(), cpuTime()
	sp := tr.start(w.whole(), -1)
	sum, err := w.run(o, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	c1, m1 := cpuTime(), mallocs()
	wall := tr.dur(sp)
	s.add("stream.cpu_over_wall", float64(c1-c0)/float64(wall))
	s.add("stream.allocs_per_pkt", (m1-m0)/float64(w.pkts))
	s.add("stream.peak_shard_entries", float64(sum.Stats.PeakShardEntries))
	s.add("stream.peak_open_windows", float64(sum.Stats.PeakOpenWindows))
	snap := o.Reg.Snapshot()
	s.add("stream.windows_closed", famSum(snap, "stream_windows_closed_total"))
	s.add("stream.pairs_matched", famSum(snap, "stream_pairs_matched_total"))
	s.add("stream.pairs_orphaned", famSum(snap, "stream_pairs_orphaned_total"))
	s.add("stream.shard_queue_peak_records", famMax(snap, "stream_shard_queue_peak_records"))
	s.add("stream.watermark_lag_peak_windows", famMax(snap, "stream_watermark_lag_peak_windows"))

	sp = tr.start("pcap.stream_drain", -1)
	err = errors.Join(drain(w.pa), drain(w.pb))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("stream.engine", -1)
	_, err = w.run(nil, []stream.Source{stream.NewTraceSource(w.a), stream.NewTraceSource(w.b)})
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("metrics.compare_windowed", -1)
	_, err = metrics.CompareWindowed(w.a, w.b, streamWindow, metrics.Options{})
	tr.end(sp)
	return err
}

func (w *streamWL) fold(tr *tracer, s series, m map[string]float64) {
	m["stream.run_ms"] = median(tr.perOpMs(w.whole(), false))
	m["stream.engine_ms"] = median(tr.perOpMs("stream.engine", false))
	m["pcap.stream_drain_ms"] = median(tr.perOpMs("pcap.stream_drain", false))
	m["metrics.compare_windowed_ms"] = median(tr.perOpMs("metrics.compare_windowed", false))
	for name, v := range s {
		m[name] = median(v)
	}
	m["trace.layers_ms"] = m["pcap.stream_drain_ms"] + m["stream.engine_ms"]
}

// famValues returns every series value of one metric family of a
// registry snapshot.
func famValues(snap []obs.FamilySnapshot, name string) []float64 {
	var vs []float64
	for _, f := range snap {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil {
				vs = append(vs, *s.Value)
			}
		}
	}
	return vs
}

func famSum(snap []obs.FamilySnapshot, name string) float64 {
	var v float64
	for _, x := range famValues(snap, name) {
		v += x
	}
	return v
}

func famMax(snap []obs.FamilySnapshot, name string) float64 {
	return slices.Max(append(famValues(snap, name), 0))
}

// ---- trial config → recorded trace ----

type trialWL struct {
	e      *env
	shards int

	want []*metrics.Result // from the other engine: sequential checks sharded and back
	pkts int
}

func (w *trialWL) whole() string    { return "experiments.run" }
func (w *trialWL) packets() int     { return w.pkts }
func (w *trialWL) footprint() int64 { return 0 }
func (w *trialWL) ready() error     { return nil }
func (w *trialWL) close() error     { return nil }

func (w *trialWL) config(shards int, o *obs.Obs) experiments.TrialConfig {
	return experiments.TrialConfig{Packets: max(40_000/w.e.scale, 400), Runs: 3, Seed: w.e.seed, Shards: shards, Obs: o}
}

func (w *trialWL) setup() error {
	other := 3 - w.shards
	ref, err := experiments.Run(testbed.LocalDual(), w.config(other, nil))
	if err != nil {
		return err
	}
	w.want = ref.Results
	w.pkts = 0
	for _, t := range ref.Traces {
		w.pkts += t.Len()
	}
	_, err = w.run(w.shards, nil)
	return err
}

func (w *trialWL) run(shards int, o *obs.Obs) (*experiments.RunResult, error) {
	res, err := experiments.Run(testbed.LocalDual(), w.config(shards, o))
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(res.Results, w.want) {
		return nil, fmt.Errorf("shards=%d results differ from shards=%d: %w", shards, 3-w.shards, errWrong)
	}
	return res, nil
}

func (w *trialWL) op(tr *tracer, s series) error {
	if tr == nil {
		_, err := w.run(w.shards, nil)
		return err
	}
	o := obs.New()
	c0 := cpuTime()
	sp := tr.start(w.whole(), -1)
	res, err := w.run(w.shards, o)
	tr.end(sp)
	if err != nil {
		return err
	}
	c1 := cpuTime()
	wall := tr.dur(sp)
	sp = tr.start("experiments.compare", -1)
	for _, t := range res.Traces[1:] {
		if _, err = metrics.Compare(res.Traces[0], t, metrics.Options{}); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	snap := o.Reg.Snapshot()
	for name, fam := range map[string]string{
		"nic.tx_pkts": "nic_tx_packets_total", "nic.doorbells": "nic_doorbells_total",
		"netsw.forwarded": "switch_forwarded_total", "netsw.egress_drops": "switch_egress_drops_total",
		"core.recorded_pkts": "mb_recorded_packets_total", "core.replayed_pkts": "mb_replayed_packets_total",
		"core.capture_received": "capture_received_total",
	} {
		s.add(name, famSum(snap, fam))
	}
	microDrives(s, w.e.scale)
	if w.shards > 1 {
		h, n := famSum(snap, "psim_handoffs_total"), famSum(snap, "psim_null_messages_total")
		s.add("psim.handoffs", h)
		s.add("psim.null_messages", n)
		s.add("psim.useful_msg_ratio", h/(h+n))
		s.add("psim.stall_breaks", famSum(snap, "psim_stall_breaks_total"))
		s.add("psim.push_blocks", famSum(snap, "psim_push_blocks_total"))
		s.add("psim.queue_depth_peak", famMax(snap, "psim_queue_depth_peak"))
		s.add("psim.cpu_over_wall", float64(c1-c0)/float64(wall))
		// The sequential engine on the same trial, for the slowdown ratio.
		sp = tr.start("experiments.run_seq", -1)
		_, err = w.run(1, nil)
		tr.end(sp)
	}
	return err
}

// microDrives times the two inner loops every trial is made of, on
// their own: the event loop (post and fire 1 M no-op events) and the
// NIC transmit path (64-packet bursts into a sink at 100 G, as
// BenchmarkReplayerThroughput100G does).
func microDrives(s series, scale int) {
	events := 1_000_000 / scale
	eng := sim.NewEngine(1)
	nop := func() {}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		eng.Post(sim.Time(i), nop)
	}
	eng.Run()
	s.add("sim.ns_per_event", float64(time.Since(t0))/float64(events))

	pkts := 200_000 / scale
	eng = sim.NewEngine(1)
	q := nic.New(eng, nic.Profile{Name: "100G", LineRateBps: packet.Gbps(100)}, "bench").NewQueue(1 << 20)
	sink := &countingSink{}
	q.Connect(sink, 0)
	t0 = time.Now()
	for sent := 0; sent < pkts; sent += nic.BurstSize {
		burst := make([]*packet.Packet, nic.BurstSize)
		for j := range burst {
			burst[j] = &packet.Packet{Tag: packet.Tag{Seq: uint64(sent + j)}, FrameLen: 1400}
		}
		q.SendBurst(burst)
	}
	eng.RunUntil(40 * sim.Millisecond)
	if sink.n > 0 {
		s.add("nic.ns_per_pkt", float64(time.Since(t0))/float64(sink.n))
		s.add("nic.events_per_pkt", float64(eng.Executed())/float64(sink.n))
	}
}

type countingSink struct{ n int }

func (c *countingSink) Receive(*packet.Packet, sim.Time) { c.n++ }

func (w *trialWL) fold(tr *tracer, s series, m map[string]float64) {
	run := median(tr.perOpMs(w.whole(), false))
	compare := median(tr.perOpMs("experiments.compare", false))
	m["experiments.run_ms"] = run
	m["experiments.compare_ms"] = compare
	m["sim.run_ms"] = run - compare
	for name, v := range s {
		m[name] = median(v)
	}
	if seq := median(tr.perOpMs("experiments.run_seq", false)); seq > 0 {
		m["psim.slowdown_vs_seq"] = run / seq
	}
	m["trace.layers_ms"] = run
}

// ---- HTTP upload → served bytes ----

// recycleEvery is how many sessions one state directory takes before
// it is drained, removed and replaced. choird never deletes its spool,
// and past a few hundred MB of fresh pages a POST costs what the page
// cache costs, not what the service costs; 16 sessions of 5.4 MB keep
// this workload's share of the 300 MB footprint under 90 MB.
const recycleEvery = 16

// batchSessions is the sessions of one op, split evenly over the clients.
const batchSessions = 8

type serveWL struct {
	e *env

	body  []byte // the multipart upload, built once
	ctype string
	want  []byte // offline consistency.Report of the same pair
	pkts  int
	bytes int64

	mu       sync.Mutex // guards the series the concurrent clients add to
	srv      *serve.Server
	ts       *httptest.Server
	stateDir string
	sessions int // on the current state directory
}

func (w *serveWL) whole() string { return "serve.batch" }
func (w *serveWL) packets() int  { return w.pkts * batchSessions }
func (w *serveWL) footprint() int64 {
	return w.bytes + recycleEvery*int64(len(w.body))
}

func (w *serveWL) setup() error {
	a, b := genPair(w.e, 10_000, 256, uploadPlan)
	dir := filepath.Join(w.e.root, "serve_upload")
	pa, pb, size, err := writePair(dir, a, b)
	if err != nil {
		return err
	}
	w.pkts, w.bytes = a.Len()+b.Len(), size
	var off bytes.Buffer
	if err := report(&off, pa, pb); err != nil {
		return err
	}
	w.want = off.Bytes()

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, path := range []string{pa, pb} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := filepath.Base(path)
		fw, err := mw.CreateFormFile(name[:1], name)
		if err != nil {
			return err
		}
		fw.Write(raw)
	}
	if err := mw.Close(); err != nil {
		return err
	}
	w.body, w.ctype = body.Bytes(), mw.FormDataContentType()
	w.stateDir = filepath.Join(dir, "state")
	if err := w.start(); err != nil {
		return err
	}
	return w.op(nil, nil)
}

// start brings up a fresh service on an empty state directory behind a
// loopback listener.
func (w *serveWL) start() error {
	srv, err := serve.New(serve.Config{Dir: w.stateDir, Seed: w.e.seed, Window: streamWindow})
	if err != nil {
		return err
	}
	w.srv, w.ts, w.sessions = srv, httptest.NewServer(srv.Handler()), 0
	return nil
}

// close drains the service, closes the listener and its client's idle
// connections, and removes the state directory.
func (w *serveWL) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Drain(ctx)
	w.ts.Close()
	w.srv, w.ts = nil, nil
	return errors.Join(err, os.RemoveAll(w.stateDir))
}

func (w *serveWL) ready() error {
	if w.sessions+batchSessions <= recycleEvery {
		return nil
	}
	if err := w.close(); err != nil {
		return err
	}
	return w.start()
}

// liveHeap is the heap still reachable after two collections: the
// first moves what the other workloads left in sync.Pools to the pools'
// victim caches, the second frees it.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func (w *serveWL) op(tr *tracer, s series) error {
	perClient := batchSessions / w.e.clients
	errs := make([]error, w.e.clients)
	var wg sync.WaitGroup
	var heap0 float64
	if tr != nil {
		heap0 = liveHeap()
	}
	sp := tr.start(w.whole(), -1)
	for c := 0; c < w.e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient && errs[c] == nil; i++ {
				errs[c] = w.session(tr, s, sp, "bench"+strconv.Itoa(c))
			}
		}()
	}
	wg.Wait()
	tr.end(sp)
	if tr != nil {
		// The ROADMAP 2c question: what a finished session still holds.
		s.add("serve.retained_kb_per_session", (liveHeap()-heap0)/1024/batchSessions)
	}
	w.sessions += perClient * w.e.clients
	return errors.Join(errs...)
}

// session is one closed-loop exchange: POST the pair, poll until the
// comparison is done, GET the rendered report and compare its bytes.
func (w *serveWL) session(tr *tracer, s series, parent int, tenant string) error {
	client, base := w.ts.Client(), w.ts.URL
	root := tr.start("serve.session", parent)
	defer tr.end(root)

	sp := tr.start("serve.post", root)
	resp, err := client.Post(base+"/v1/sessions?tenant="+tenant, w.ctype, bytes.NewReader(w.body))
	if err != nil {
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode == http.StatusTooManyRequests && s != nil {
		w.mu.Lock()
		s.add("serve.shed_429", 1)
		w.mu.Unlock()
	}
	if resp.StatusCode != http.StatusAccepted || err != nil || created.ID == "" {
		return fmt.Errorf("POST: status %d, id %q, decode %v", resp.StatusCode, created.ID, err)
	}

	sp = tr.start("serve.wait", root)
	polls := 0
	for {
		resp, err := client.Get(base + "/v1/sessions/" + created.ID + "/result")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		polls++
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("poll %s: status %d", created.ID, resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	tr.end(sp)

	sp = tr.start("serve.render", root)
	resp, err = client.Get(base + "/v1/sessions/" + created.ID + "/result?format=consistency")
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET report %s: status %d, %v", created.ID, resp.StatusCode, err)
	}
	if s != nil {
		w.mu.Lock()
		s.add("serve.polls_per_session", float64(polls))
		w.mu.Unlock()
	}
	if !bytes.Equal(got, w.want) {
		return fmt.Errorf("session %s: served report: %w", created.ID, errWrong)
	}
	return nil
}

func (w *serveWL) fold(tr *tracer, s series, m map[string]float64) {
	batch := median(tr.perOpMs(w.whole(), false))
	sessions := tr.each("serve.session")
	m["serve.post_ms"] = median(tr.each("serve.post"))
	m["serve.wait_ms"] = median(tr.each("serve.wait"))
	m["serve.render_ms"] = median(tr.each("serve.render"))
	m["serve.session_p50_ms"] = median(sessions)
	if v, pct, ok := tail(sessions); ok {
		m["serve.session_tail_ms"], m["serve.session_tail_pct"] = v, pct
	}
	if batch > 0 {
		m["serve.sessions_per_s"] = batchSessions / (batch / 1e3)
		m["serve.admitted_mb_per_s"] = batchSessions * float64(len(w.body)) / 1e6 / (batch / 1e3)
	}
	m["serve.polls_per_session"] = median(s["serve.polls_per_session"])
	m["serve.shed_429"] = float64(len(s["serve.shed_429"]))
	m["serve.retained_kb_per_session"] = median(s["serve.retained_kb_per_session"])
	// What a session spends outside the three calls is the load
	// generator's own work: its span's self time.
	m["serve.client_ms"] = median(tr.perOpMs("serve.session", true)) / float64(batchSessions)
	// A batch lasts as long as one client's sessions, back to back.
	m["trace.layers_ms"] = median(tr.perOpMs("serve.session", false)) / float64(w.e.clients)
}
