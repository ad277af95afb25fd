// Command experiments regenerates the paper's tables and figures.
//
//	experiments -run fig4a            # one artifact, scaled down
//	experiments -run all -full        # everything at paper scale (~1.05M packets)
//	experiments -list                 # artifact index
//
// Output is text: ASCII histograms for figures, aligned tables for
// tables, with the §3 metrics alongside. See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// Artifact text goes to stdout and is fully deterministic in
// (-run, -packets, -runs, -seed) — byte-identical across invocations
// and scheduler widths (golden-tested in main_test.go). Runtime
// diagnostics — the trial-scheduler speedup line and the telemetry
// summary — go to stderr, since they depend on wall-clock timing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shaper"
	"repro/internal/sim"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runID := fs.String("run", "all", "artifact id (see -list) or 'all'")
	sweep := fs.String("sweep", "", "run a rate sweep on this environment name instead of an artifact")
	list := fs.Bool("list", false, "list artifact ids and exit")
	full := fs.Bool("full", false, "paper scale: 0.3s recordings (~1.05M packets) and 5 runs")
	packets := fs.Int("packets", experiments.DefaultScale, "recorded packets per experiment (ignored with -full)")
	runs := fs.Int("runs", 5, "replay trials per experiment")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", runtime.NumCPU(),
		"trial scheduler width: independent trials/windows run on this many workers (results are bit-identical to -workers 1)")
	simShards := fs.Int("sim-shards", 1,
		"partition each simulation across this many event domains (parallel-in-space core; results are bit-identical to -sim-shards 1)")
	camp := fs.String("campaign", "",
		"run a crash-safe resumable trial campaign under this name instead of a single artifact (reps × environments × conditions)")
	journal := fs.String("journal", "campaign.journal", "campaign journal path (checksummed append-only JSONL, fsync'd per trial)")
	resume := fs.Bool("resume", false, "replay the journal, skip completed trials, and finish the campaign")
	trialTimeout := fs.Uint64("trial-timeout", 0,
		"per-trial sim-step budget: a trial firing more simulation events than this fails deterministically (0 = unlimited)")
	retries := fs.Int("retries", 2, "retry attempts per failed trial before it is journaled as failed")
	backoff := fs.Duration("retry-backoff", 250*time.Millisecond, "host-time wait before the first retry, doubling per attempt")
	reps := fs.Int("reps", 10, "campaign repetitions per (environment, condition) cell")
	conditions := fs.String("conditions", "clean",
		"semicolon-separated noise conditions, each a fault plan spec like 'drop=0.005,jitter=2e3' ('clean' = none)")
	envNames := fs.String("envs", "", "comma-separated environment subset for the campaign (default: all)")
	stopAfter := fs.Int("stop-after", 0,
		"checkpoint the campaign after this many trials journaled by this invocation (deterministic interrupt for tests/gates; 0 = off)")
	workloadName := fs.String("workload", "",
		"replace the CBR record-phase traffic with this application model from the workload catalogue (abr, voip, rpc, web, iot)")
	differentiate := fs.Bool("differentiate", false,
		"run the traffic-differentiation detector on -workload instead of an artifact: neutral vs throttled arm, κ-component verdict table (see cmd/diffdetect for the full knob set)")
	throttleFrac := fs.Float64("throttle-frac", 0.5,
		"-differentiate bucket rate as a fraction of the workload's own offered rate")
	throttlePolice := fs.Bool("throttle-police", false, "-differentiate polices (drops) instead of shaping (delaying)")
	ocli := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "Reproducible artifacts (paper table/figure → id):")
		for _, id := range experiments.AllFigureIDs() {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		return nil
	}

	if err := ocli.Start(); err != nil {
		return err
	}
	pool := parallel.New(*workers).WithObs(ocli.Obs().Registry())
	started := time.Now()

	if *camp != "" {
		ccfg := campaign.Config{
			Name: *camp, Reps: *reps, Packets: *packets, Runs: *runs,
			Seed: *seed, Retries: *retries, Backoff: *backoff,
			MaxSteps: *trialTimeout, Pool: pool, Obs: ocli.Obs(), Shards: *simShards,
			Log: stderr, StopAfter: *stopAfter,
		}
		var err error
		if ccfg.Envs, err = selectEnvs(*envNames); err != nil {
			return err
		}
		if ccfg.Conditions, err = parseConditions(*conditions); err != nil {
			return err
		}
		if err := runCampaign(ccfg, *journal, *resume, stdout, stderr); err != nil {
			return err
		}
		return finishObs(stderr, ocli, pool, started)
	}

	cfg := experiments.TrialConfig{Packets: *packets, Runs: *runs, Seed: *seed, Obs: ocli.Obs(), Pool: pool, Shards: *simShards, Workload: *workloadName}
	if *full {
		env := testbed.LocalSingle()
		cfg.Packets = env.PacketsFor(300 * sim.Millisecond)
		cfg.Runs = 5
	}

	if *differentiate {
		if cfg.Workload == "" {
			return fmt.Errorf("-differentiate needs -workload (abr, voip, rpc, web, iot)")
		}
		env := testbed.LocalSingle()
		if envs, err := selectEnvs(*envNames); err != nil {
			return err
		} else if len(envs) > 0 {
			env = envs[0]
		}
		res, err := experiments.Differentiate(env, experiments.DiffConfig{
			Trial:    cfg,
			Shaper:   shaper.Config{QueuePkts: 64, Police: *throttlePolice},
			RateFrac: *throttleFrac,
		})
		if err != nil {
			return err
		}
		res.Render(stdout)
		return finishObs(stderr, ocli, pool, started)
	}

	if *sweep != "" {
		var env testbed.Env
		found := false
		for _, e := range testbed.AllEnvironments() {
			if strings.EqualFold(e.Name, *sweep) {
				env, found = e, true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown environment %q", *sweep)
		}
		rates := []float64{10, 20, 40, 60, 80, 100}
		pts, err := experiments.RateSweep(env, rates, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.SweepTable("consistency vs offered load — "+env.Name, pts))
		return finishObs(stderr, ocli, pool, started)
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.AllFigureIDs()
	}
	for _, id := range ids {
		doc, err := experiments.Figure(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, doc.String())
	}
	return finishObs(stderr, ocli, pool, started)
}

// finishObs prints the trial scheduler's end-of-run speedup line and the
// telemetry summary to stderr (they depend on wall-clock timing, unlike
// the artifact text on stdout), then writes -metrics/-trace artifacts
// accumulated across every artifact run in this invocation.
func finishObs(stderr io.Writer, ocli *obs.CLI, pool *parallel.Pool, started time.Time) error {
	if st := pool.Stats(); st.Tasks > 0 {
		wall := time.Since(started)
		speedup := 1.0
		if wall > 0 {
			// Busy sums the host time spent inside jobs — what a
			// sequential loop would have needed for the same work.
			speedup = float64(st.Busy) / float64(wall)
			if speedup < 1 {
				speedup = 1 // scheduling overhead, not a slowdown claim
			}
		}
		fmt.Fprintf(stderr, "scheduler: %d workers, %d jobs, %v busy over %v wall (speedup ≈ %.2fx vs sequential)\n",
			pool.Workers(), st.Tasks, st.Busy.Round(time.Millisecond), wall.Round(time.Millisecond), speedup)
	}
	if ocli.Enabled() {
		fmt.Fprintf(stderr, "%s\n", ocli.Summary())
	}
	return ocli.Finish()
}

// runCampaign drives the crash-safe campaign runner: SIGINT checkpoints
// cleanly (in-flight trials finish and journal, then the process exits
// without a table), and a completed matrix renders the final table on
// stdout — byte-identical no matter how many interrupt/resume cycles it
// took (golden-tested in campaign_test.go and gated in verify.sh).
func runCampaign(cfg campaign.Config, journalPath string, resume bool, stdout, stderr io.Writer) error {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Fprintln(stderr, "experiments: interrupt — checkpointing campaign (in-flight trials will finish and journal)")
			close(stop)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()

	res, err := campaign.Run(cfg, journalPath, resume, stop)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "campaign %q: %d planned, %d ok, %d failed, %d skipped via resume, %d executed here, %d retry attempts, journal %d bytes\n",
		cfg.Name, res.Planned, res.Completed, res.Failed, res.Skipped, res.Executed, res.RetriedAttempts, res.JournalBytes)
	if res.Interrupted {
		fmt.Fprintf(stderr, "campaign checkpointed before completion — rerun with -resume to finish\n")
		return nil
	}
	fmt.Fprintln(stdout, res.Doc.String())
	return nil
}

// selectEnvs resolves a comma-separated environment subset ("" = all).
func selectEnvs(names string) ([]testbed.Env, error) {
	if strings.TrimSpace(names) == "" {
		return nil, nil // campaign.Config defaults to all environments
	}
	all := testbed.AllEnvironments()
	var out []testbed.Env
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range all {
			if strings.EqualFold(e.Name, name) {
				out = append(out, e)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown environment %q", name)
		}
	}
	return out, nil
}

// parseConditions parses the semicolon-separated noise-condition list;
// each condition is a fault plan spec (fault.ParsePlan) named by its
// spec text.
func parseConditions(specs string) ([]campaign.Condition, error) {
	var out []campaign.Condition
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			return nil, err
		}
		name := spec
		if plan.IsIdentity() {
			name = "clean"
		}
		out = append(out, campaign.Condition{Name: name, Plan: plan})
	}
	return out, nil
}
