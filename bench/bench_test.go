package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smoke is the whole benchmark at 1/20 scale, one measured and one
// traced round.
func smoke(t *testing.T) config {
	return config{workload: "all", seed: 1, seconds: 1, rounds: 1, trace: 2, deadline: time.Minute, root: t.TempDir(), scale: 20}
}

func runDir(t *testing.T, cfg config) string {
	dir, err := os.MkdirTemp(cfg.root, "choirbench-")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// lastLine parses the result line a run ends its standard output with.
func lastLine(t *testing.T, stdout []byte) outcome {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	return out
}

// TestSmokeAllWorkloads runs every workload end to end and traced, and
// checks that every declared metric comes out, that nothing failed, that
// the report budget sums, and that the run left nothing behind.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := smoke(t)
	dir := runDir(t, cfg)
	before := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), cfg, dir, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	out := lastLine(t, stdout.Bytes())
	if !out.Correct || out.Failed != 0 || out.Attempted < 3*len(specs) {
		t.Errorf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
	}
	check := func(name string, d metricDef) bool {
		m, ok := out.Metrics[name]
		switch {
		case !ok:
			return false
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", name, m.Value)
		case m.Unit == "" || m.Unit != d.unit:
			t.Errorf("%s has unit %q, want %q", name, m.Unit, d.unit)
		}
		return true
	}
	for _, s := range specs {
		for _, d := range endToEnd {
			if !check(s.name+"/"+d.name, d) {
				t.Errorf("%s/%s is missing", s.name, d.name)
			} else if v := out.Metrics[s.name+"/"+d.name].Value; v <= 0 {
				t.Errorf("%s/%s = %v: an end-to-end metric is never 0", s.name, d.name, v)
			}
		}
		if v, ok := out.Metrics[s.name+"/fail_ratio"]; !ok || v.Value != 0 {
			t.Errorf("%s/fail_ratio = %v, %v", s.name, v.Value, ok)
		}
		if v, ok := out.Metrics[s.name+"/host.leaked_goroutines"]; !ok || v.Value != 0 {
			t.Errorf("%s/host.leaked_goroutines = %v, %v", s.name, v.Value, ok)
		}
	}
	// A workload lists the layers it goes through; together they list all
	// but the serve tail, which one round's 8 sessions cannot support.
	for _, d := range perLayer {
		listed := 0
		for _, s := range specs {
			if check(s.name+"/"+d.name, d) {
				listed++
			}
		}
		if want := !strings.HasPrefix(d.name, "serve.session_tail"); (listed > 0) != want {
			t.Errorf("%s is listed by %d workloads", d.name, listed)
		}
	}
	// The budget must sum: the harness's decode + normalize + compare +
	// render must be the Report call taken apart. At this scale a time is
	// one GC cycle or one noisy neighbour away from any figure (the time
	// gap, consistency.budget_gap_pct, is read off full-scale runs and
	// recorded in README.md), so the test holds the parts to the whole by
	// what they allocate, which repeats exactly.
	for _, name := range []string{"report_sorted_1400", "report_reordered_64"} {
		if gap := out.Metrics[name+"/consistency.alloc_gap_pct"].Value; gap >= 15 {
			t.Errorf("%s: decode + normalize + compare + render allocate %.1f%% off the report they take apart, want < 15", name, gap)
		}
		if out.Metrics[name+"/pcap.decode_ms"].Value <= 0 || out.Metrics[name+"/metrics.compare_ms"].Value <= 0 {
			t.Errorf("%s: a layer of the report budget reads 0", name)
		}
	}
	if v := out.Metrics["report_sorted_1400/metrics.moved_pkts"].Value; v != 0 {
		t.Errorf("sorted pair moved %v packets", v)
	}
	if v := out.Metrics["report_reordered_64/metrics.moved_pkts"].Value; v <= 0 {
		t.Errorf("reordered pair moved %v packets", v)
	}
	if v := out.Metrics["trial_sharded/psim.handoffs"].Value; v <= 0 {
		t.Errorf("trial_sharded made %v handoffs", v)
	}
	if v, ok := out.Metrics["trial_seq/psim.handoffs"]; ok {
		t.Errorf("trial_seq lists %v psim handoffs: it must not go through psim", v.Value)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("fixture/state root %s still exists (%v)", dir, err)
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("%d goroutines outlive the run", n)
	}
}

// TestTracedRunOfOneWorkload is what the accepting driver runs with
// --trace 1: every per-layer metric must come out under its bare name,
// the bypassed layers measured on the other workloads, and no time may
// read 0.
func TestTracedRunOfOneWorkload(t *testing.T) {
	cfg := smoke(t)
	cfg.workload, cfg.trace = "trial_seq", 1
	dir := runDir(t, cfg)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), cfg, dir, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	out := lastLine(t, stdout.Bytes())
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(out.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s is missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s has unit %q, want %q", d.name, m.Unit, d.unit)
		case (d.unit == "ms" || d.unit == "ns") && m.Value <= 0:
			t.Errorf("%s = %v: a time that was measured is not 0", d.name, m.Value)
		}
	}
	if !bytes.Contains(stdout.Bytes(), []byte(" on serve_upload\n")) {
		t.Errorf("the table does not say where the serve layer was measured:\n%s", stdout.String())
	}
}

// TestCheckerIsChecked corrupts each workload's reference and expects
// the next op to be counted as failed.
func TestCheckerIsChecked(t *testing.T) {
	e := &env{root: t.TempDir(), seed: 1, scale: 20, clients: 1}
	corrupt := map[string]func(w workload){
		"report_sorted_1400":  func(w workload) { w.(*reportWL).want[0] ^= 1 },
		"report_reordered_64": func(w workload) { w.(*reportWL).want[len(w.(*reportWL).want)-2] ^= 1 },
		"stream_windowed":     func(w workload) { w.(*streamWL).want[0].Result.Common++ },
		"trial_seq":           func(w workload) { w.(*trialWL).want[0].Kappa += 1e-12 },
		"trial_sharded":       func(w workload) { w.(*trialWL).want[0].Common++ },
		"serve_upload":        func(w workload) { w.(*serveWL).want[0] ^= 1 },
	}
	for _, s := range specs {
		st := &state{spec: s, w: s.build(e)}
		if err := st.w.setup(); err != nil {
			t.Fatalf("%s: setup: %v", s.name, err)
		}
		st.timedOp(nil, &st.samples, io.Discard)
		if st.failed != 0 {
			t.Errorf("%s: op failed against the intact reference", s.name)
		}
		corrupt[s.name](st.w)
		st.timedOp(nil, &st.samples, io.Discard)
		m := map[string]float64{}
		st.perLayer(m)
		if st.failed != 1 || m["fail_ratio"] != 0.5 || len(st.samples) != 1 {
			t.Errorf("%s: corrupted reference: failed %d of %d, fail_ratio %v, %d samples kept; want 1 of 2, 0.5, 1",
				s.name, st.failed, st.attempted, m["fail_ratio"], len(st.samples))
		}
		if err := st.w.close(); err != nil {
			t.Errorf("%s: close: %v", s.name, err)
		}
	}
}

// TestStoppedRunLeavesNothing ends the run's context mid-way, as the
// deadline and SIGTERM do, and expects a non-zero code and a clean exit.
func TestStoppedRunLeavesNothing(t *testing.T) {
	cfg := smoke(t)
	cfg.rounds, cfg.seconds = 0, 30
	dir := runDir(t, cfg)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, cfg, dir, &stdout, &stderr); code != 3 {
		t.Errorf("exit code %d, want 3\n%s", code, stderr.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("fixture/state root %s still exists (%v)", dir, err)
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("%d goroutines outlive the stopped run", n)
	}
}

// TestFootprintGuard refuses inputs above the size the benchmark's
// numbers are valid for.
func TestFootprintGuard(t *testing.T) {
	big := &state{spec: spec{name: "big"}, w: fixedFootprint(maxFootprint + 1)}
	err := measure(context.Background(), config{trace: 0, rounds: 1, seconds: 1}, []*state{big}, nil, io.Discard)
	if err == nil || len(big.samples) != 0 {
		t.Errorf("measure accepted a %d-byte footprint: err %v, %d ops run", maxFootprint+1, err, len(big.samples))
	}
}

type fixedFootprint int64

func (f fixedFootprint) setup() error                             { return nil }
func (f fixedFootprint) ready() error                             { return nil }
func (f fixedFootprint) op(*tracer, series) error                 { return nil }
func (f fixedFootprint) whole() string                            { return "" }
func (f fixedFootprint) packets() int                             { return 1 }
func (f fixedFootprint) fold(*tracer, series, map[string]float64) {}
func (f fixedFootprint) footprint() int64                         { return int64(f) }
func (f fixedFootprint) close() error                             { return nil }

// TestManifestMatchesTables keeps BENCHMARK.json and the tables this
// binary prints from drifting apart.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var man struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("manifest has %d workloads, binary %d", len(man.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := man.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: manifest %q / %q, binary %q / %q", i, w.Name, w.Why, s.name, s.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, binary %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest %+v, binary %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: manifest bound %v, binary %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd, true)
	same("per_layer", man.PerLayer, perLayer, false)
}
