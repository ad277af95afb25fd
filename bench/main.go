// Command bench is this repository's benchmark: the three paths a user
// runs — pcap pair → κ report, trial config → recorded trace, HTTP
// upload → served bytes — as six named workloads, measured in
// interleaved rounds in one process, every output checked against an
// independent reference, with a traced run that says which layer the
// time went to. See README.md; run it with bench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string        // a workload name, or "all"
	seed     int64         // every input derives from it
	seconds  float64       // measured time per selected workload and phase
	rounds   int           // when > 0, measure exactly this many rounds instead
	trace    int           // 0: end-to-end run, 1: traced run, 2: both
	deadline time.Duration // hard limit on the whole invocation
	traceOut string        // write the traced run's spans here
	root     string        // parent of the fixture/state directory
	scale    int           // packet-count divisor; only the smoke test sets it
}

const (
	// setupRepeats is how many times the end-to-end run sets every
	// workload up; setup_s is the median, so one cold start is not it.
	setupRepeats = 7
	// tracedRounds is the traced run's length when it follows an
	// end-to-end run measured in rounds.
	tracedRounds = 5
	// fillOps is how many traced ops each workload that was not selected
	// runs, so that the layers the selected one bypasses are measured in
	// the same process and no line of the per-layer table is a stand-in.
	// Three ops are 24 serve sessions, enough for that layer's tail.
	fillOps = 3
	// maxFootprint bounds fixtures plus live service state. Above it the
	// numbers are the page cache's (README, sizing facts).
	maxFootprint = 300 << 20
	// grace is how long an interrupted run may take to finish its op
	// and tear down before the process gives up on it.
	grace = 20 * time.Second
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(cfg.root, "choirbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, cfg.deadline)
	defer cancel()

	// run tears down and removes dir itself. Should an op never return,
	// nothing here depends on it: the directory is removed and the
	// process, which has no children, exits.
	done := make(chan int, 1)
	go func() { done <- run(ctx, cfg, dir, os.Stdout, os.Stderr) }()
	select {
	case code := <-done:
		os.Exit(code)
	case <-ctx.Done():
	}
	select {
	case code := <-done:
		os.Exit(code)
	case <-time.After(grace):
		fmt.Fprintf(os.Stderr, "bench: an op did not return within %v of the stop; abandoning it\n", grace)
		os.RemoveAll(dir)
		os.Exit(3)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "every input is generated from this seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "measured seconds per workload")
	fs.IntVar(&c.rounds, "rounds", 0, "measure this many rounds instead of -seconds (the all-workload protocol uses 30)")
	fs.IntVar(&c.trace, "trace", 2, "0: end-to-end metrics, 1: traced run and per-layer metrics, 2: both")
	fs.DurationVar(&c.deadline, "deadline", 240*time.Second, "hard limit: print what there is and exit non-zero")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON")
	fs.StringVar(&c.root, "root", defaultRoot(), "directory to create the fixture/state directory in")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.scale = 1
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.workload != "all" && findSpec(c.workload) == nil {
		return c, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.trace < 0 || c.trace > 2 || c.seconds <= 0 || c.rounds < 0 || c.deadline <= 0 {
		return c, errors.New("need -trace in 0..2, -seconds > 0, -rounds >= 0, -deadline > 0")
	}
	return c, nil
}

// defaultRoot prefers memory-backed storage so the numbers are the
// service's and not the disk's; host.tmpfs records which it was.
func defaultRoot() string {
	if f, err := os.CreateTemp("/dev/shm", "choirbench-probe-"); err == nil {
		f.Close()
		os.Remove(f.Name())
		return "/dev/shm"
	}
	return os.TempDir()
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// state is one selected workload and everything measured on it.
type state struct {
	spec spec
	w    workload

	setups            []float64 // seconds, one per setup
	samples           []sample  // the end-to-end run's ops
	attempted, failed int

	tr       *tracer  // the traced run's spans
	counts   series   // the traced run's counts
	untraced []sample // ops run plain in the traced run, between the traced ones

	calib      []float64 // the calibration kernel's times, one before every op
	setupCalib []float64 // and one before every setup
}

// outcome is what run reports.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the whole benchmark: set up, measure, trace, tear down, print.
// It returns the process's exit code: 0 when every op was right and
// nothing was left behind, 1 when not, 3 when stopped early.
func run(ctx context.Context, cfg config, dir string, stdout, stderr io.Writer) int {
	goroutines := runtime.NumGoroutine()
	e := &env{root: dir, seed: cfg.seed, scale: cfg.scale, clients: min(2, runtime.GOMAXPROCS(0))}
	// sel is what was asked for. fill is the rest, traced fillOps times
	// each so that the layers sel bypasses are measured too.
	var sel, fill []*state
	for _, s := range specs {
		st := &state{spec: s, w: s.build(e)}
		if cfg.workload == "all" || cfg.workload == s.name {
			sel = append(sel, st)
		} else if cfg.trace != 0 {
			fill = append(fill, st)
		}
	}
	states := append(slices.Clip(sel), fill...)
	fmt.Fprintf(stderr, "bench: seed %d, root %s (tmpfs %v), %d cpu, GOMAXPROCS %d\n",
		cfg.seed, dir, onTmpfs(dir), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	err := measure(ctx, cfg, sel, fill, stderr)

	// Teardown runs on every path: success, wrong output, deadline, signal.
	for _, st := range states {
		if cerr := st.w.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("%s: close: %w", st.spec.name, cerr))
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	tmpfs := onTmpfs(dir)
	if rerr := os.RemoveAll(dir); rerr != nil {
		err = errors.Join(err, rerr)
	}
	leaked := leakedGoroutines(goroutines)
	if leaked > 0 {
		err = errors.Join(err, fmt.Errorf("%d goroutines outlive teardown", leaked))
	}

	out := outcome{Correct: err == nil, Metrics: map[string]metricOut{}}
	var footprint int64
	for _, st := range states {
		out.Attempted += st.attempted
		out.Failed += st.failed
		footprint += st.w.footprint()
	}
	for _, st := range sel {
		m, from := map[string]float64{}, map[string]string{}
		var kinds [][]metricDef
		if cfg.trace != 1 {
			kinds = append(kinds, endToEnd)
			st.endToEnd(m)
		}
		if cfg.trace != 0 {
			kinds = append(kinds, perLayer)
			st.perLayer(m)
			// A layer this workload bypasses reads what the first workload
			// that goes through it measured, in this same process.
			for _, f := range fill {
				if f.tr == nil {
					continue
				}
				fm := map[string]float64{}
				f.w.fold(f.tr, f.counts, fm)
				for name, v := range fm {
					if _, have := m[name]; !have {
						m[name], from[name] = v, f.spec.name
					}
				}
			}
			m["host.nproc"] = float64(runtime.NumCPU())
			m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
			m["host.tmpfs"] = b2f(tmpfs)
			m["host.footprint_mb"] = float64(footprint) / 1e6
			m["host.leaked_goroutines"] = float64(leaked)
		}
		printTable(stdout, cfg, st, m, from)
		for _, defs := range kinds {
			for _, d := range defs {
				v, ok := m[d.name]
				switch {
				case !ok && cfg.workload == "all":
					continue // in its own table a workload lists only the layers it goes through
				case !ok:
					err = errors.Join(err, fmt.Errorf("%s: %s was not measured", st.spec.name, d.name))
					out.Correct = false
				case math.IsNaN(v) || math.IsInf(v, 0):
					err = errors.Join(err, fmt.Errorf("%s: %s is %v", st.spec.name, d.name, v))
					out.Correct, v = false, 0
				}
				name := d.name
				if cfg.workload == "all" {
					name = st.spec.name + "/" + name
				}
				out.Metrics[name] = metricOut{Value: v, Unit: d.unit}
			}
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	if cfg.traceOut != "" {
		for _, st := range sel {
			if st.tr == nil {
				continue
			}
			path := cfg.traceOut
			if cfg.workload == "all" {
				path = strings.TrimSuffix(path, ".json") + "." + st.spec.name + ".json"
			}
			if werr := st.tr.writeJSON(path); werr != nil {
				fmt.Fprintln(stderr, "bench:", werr)
			}
		}
	}
	if out.Attempted == 0 {
		// Nothing ran: there is no result to print.
		return 3
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	switch {
	case ctx.Err() != nil:
		return 3
	case !out.Correct:
		return 1
	}
	return 0
}

// measure sets the selected workloads up and runs the requested phases
// on them, then traces the fill workloads. It returns early, with what
// it has, when ctx ends.
func measure(ctx context.Context, cfg config, sel, fill []*state, stderr io.Writer) error {
	var total int64
	buf := make([]byte, 16<<20)
	setUp := func(st *state) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		st.setupCalib = append(st.setupCalib, calibrate(buf))
		t0 := time.Now()
		if err := errors.Join(st.w.close(), st.w.setup()); err != nil {
			// A workload that cannot be set up has failed its first op.
			st.attempted, st.failed = 1, 1
			return fmt.Errorf("%s: setup: %w", st.spec.name, err)
		}
		st.setups = append(st.setups, time.Since(t0).Seconds())
		if len(st.setups) == 1 {
			if total += st.w.footprint(); total > maxFootprint {
				return fmt.Errorf("fixtures + service state come to %d MB, above the %d MB this benchmark is sized for: shrink the workloads, do not raise the limit",
					total>>20, maxFootprint>>20)
			}
		}
		return nil
	}
	repeats := setupRepeats
	if cfg.trace == 1 {
		repeats = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	for rep := 0; rep < repeats; rep++ {
		for _, st := range sel {
			if err := setUp(st); err != nil {
				return err
			}
		}
	}

	budget := time.Duration(cfg.seconds * float64(len(sel)) * float64(time.Second))
	if cfg.trace != 1 {
		for round, t0 := 0, time.Now(); !phaseDone(ctx, cfg.rounds, round, t0, budget); round++ {
			for _, st := range sel {
				st.calib = append(st.calib, calibrate(buf))
				st.timedOp(nil, &st.samples, stderr)
			}
		}
	}
	if cfg.trace == 0 || ctx.Err() != nil {
		return ctx.Err()
	}

	rounds := cfg.rounds
	if cfg.trace == 2 && (rounds == 0 || rounds > tracedRounds) {
		rounds = tracedRounds
	}
	for _, st := range sel {
		st.tr, st.counts = newTracer(), series{}
	}
	for round, t0 := 0, time.Now(); !phaseDone(ctx, rounds, round, t0, budget); round++ {
		for _, st := range sel {
			st.calib = append(st.calib, calibrate(buf))
			// A plain op beside every traced one gives the overhead; which
			// goes first alternates, so neither always runs on the other's
			// warm caches.
			plain := func() { st.timedOp(nil, &st.untraced, stderr) }
			if round%2 == 0 {
				plain()
			}
			st.tr.nextOp()
			st.timedOp(st.tr, nil, stderr)
			if round%2 == 1 {
				plain()
			}
		}
	}
	// The fill workloads come last, so the selected ones were measured
	// without their fixtures in memory.
	for _, st := range fill {
		if err := setUp(st); err != nil {
			return err
		}
		st.tr, st.counts = newTracer(), series{}
	}
	for i := 0; i < fillOps && ctx.Err() == nil; i++ {
		for _, st := range fill {
			st.tr.nextOp()
			st.timedOp(st.tr, nil, stderr)
		}
	}
	return ctx.Err()
}

// phaseDone says whether a phase that began at t0 and has finished
// `round` rounds is over: after the fixed number of rounds when one is
// set, else once the time budget is spent (and at least one round ran).
func phaseDone(ctx context.Context, rounds, round int, t0 time.Time, budget time.Duration) bool {
	if ctx.Err() != nil {
		return true
	}
	if rounds > 0 {
		return round >= rounds
	}
	return round > 0 && time.Since(t0) >= budget
}

// timedOp runs one op, traced when tr is set, and books it. Only a
// correct op's cost is kept: a failed one has no meaningful time.
func (st *state) timedOp(tr *tracer, into *[]sample, stderr io.Writer) {
	st.attempted++
	err := st.w.ready()
	var s sample
	if err == nil {
		var counts series // only a traced op counts
		if tr != nil {
			counts = st.counts
		}
		s, err = timed(func() error { return st.w.op(tr, counts) })
	}
	if err != nil {
		if st.failed++; st.failed <= 3 {
			fmt.Fprintf(stderr, "bench: %s: op %d failed: %v\n", st.spec.name, st.attempted, err)
		}
		return
	}
	if into != nil {
		*into = append(*into, s)
	}
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func wallMs(s sample) float64 { return s.wallMs }

// endToEnd fills m with the end-to-end metrics. Times are scaled to
// the reference box by the run's calibration (see calibRefMs); counts
// are as counted.
func (st *state) endToEnd(m map[string]float64) {
	scale := calibScale(st.calib)
	pkts := float64(st.w.packets())
	p50 := scale * median(column(st.samples, wallMs))
	m["setup_s"] = calibScale(st.setupCalib) * median(st.setups)
	m["op_p50_ms"] = p50
	if p50 > 0 {
		m["pkts_per_s"] = pkts / (p50 / 1e3)
	}
	m["cpu_ms_per_op"] = scale * median(column(st.samples, func(s sample) float64 { return s.cpuMs }))
	if pkts > 0 {
		m["allocs_per_pkt"] = median(column(st.samples, func(s sample) float64 { return s.mallocs })) / pkts
		m["alloc_bytes_per_pkt"] = median(column(st.samples, func(s sample) float64 { return s.bytes })) / pkts
	}
}

// calibScale is the factor that takes a time measured while the
// calibration kernel ran at the given times to the reference box.
func calibScale(calib []float64) float64 {
	if c := median(calib); c > 0 {
		return calibRefMs / c
	}
	return 1
}

// perLayer fills m with the per-layer metrics of the layers this
// workload goes through (its fold of the traced run) and the
// cross-checks between the traced and the plain ops.
func (st *state) perLayer(m map[string]float64) {
	if st.attempted > 0 {
		m["fail_ratio"] = float64(st.failed) / float64(st.attempted)
	}
	if st.tr == nil {
		return
	}
	st.w.fold(st.tr, st.counts, m)
	plain := median(column(st.untraced, wallMs))
	tracedOp := median(st.tr.perOpMs(st.w.whole(), false))
	m["trace.op_ms"] = plain
	if plain > 0 {
		m["trace.overhead_pct"] = 100 * (tracedOp/plain - 1)
		m["trace.budget_gap_pct"] = 100 * math.Abs(m["trace.layers_ms"]-plain) / plain
	}
	m["host.calib_ms"] = median(st.calib)
}

// leakedGoroutines waits briefly for the goroutines teardown stopped
// to exit and returns how many more there are than before the run.
func leakedGoroutines(before int) int {
	for i := 0; ; i++ {
		n := runtime.NumGoroutine() - before
		if n <= 0 || i == 200 {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// printTable prints one workload's metrics by name with unit, direction
// and bound; from names the workload a borrowed layer was measured on.
func printTable(w io.Writer, cfg config, st *state, m map[string]float64, from map[string]string) {
	fmt.Fprintf(w, "== %s  seed %d  %d ops attempted, %d failed (fail_ratio %.4g)\n   %s\n",
		st.spec.name, cfg.seed, st.attempted, st.failed, float64(st.failed)/float64(max(st.attempted, 1)), st.spec.why)
	walls := column(st.samples, wallMs)
	if cfg.trace != 1 {
		fmt.Fprintf(w, "   calibration kernel %.4g ms (reference %.4g): times below are as measured × %.3f; op p50 as measured %.6g ms\n",
			median(st.calib), calibRefMs, calibScale(st.calib), median(walls))
	}
	for _, d := range endToEnd {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-7s %-6s bound %.2f", d.name, v, d.unit, d.better, d.bound)
		if d.name == "op_p50_ms" {
			fmt.Fprintf(w, "  n=%d spread %.1f%%", len(walls), 100*spread(walls))
			if v, p, ok := tail(walls); ok {
				fmt.Fprintf(w, " p%.3g %.6g", p, calibScale(st.calib)*v)
			}
		}
		fmt.Fprintln(w)
	}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-7s %-6s", d.name, v, d.unit, d.better)
		if f := from[d.name]; f != "" {
			fmt.Fprintf(w, " on %s", f)
		}
		fmt.Fprintln(w)
	}
}
