// Package campaign is the crash-safe, resumable trial-campaign runner
// behind the paper's long evaluations: Table 2 / Fig. 9 style numbers
// come from many-hour campaigns (reps × environments × noise
// conditions), and at production scale those campaigns must survive
// crashes, hangs and partial failures rather than restart from zero.
//
// A campaign expands into a deterministic matrix of (environment,
// noise-condition, rep) trials. Each trial is one full
// experiments.Run protocol execution with its own derived seed, a
// per-trial sim-step budget (a *deterministic* timeout: the same
// runaway trial halts at the same event on every attempt and every
// host), and bounded retries with exponential host-time backoff. Every
// terminal outcome — success or retries-exhausted failure — is appended
// to a checksummed, fsync-per-record JSONL journal before the trial is
// considered complete, so a crash at any instant loses at most the
// trials that were in flight.
//
// On restart with resume=true the journal is replayed: completed trials
// (including degraded ones) are skipped, a torn final record is
// truncated away, and the remaining trials run to produce a final table
// byte-identical to an uninterrupted run — the property the campaign
// tests and the verify.sh gate assert with cmp. Failed trials never
// abort the campaign; their rows render with explicit n/reps
// annotations instead.
//
// Trials fan out across the internal/parallel scheduler; a SIGINT (or
// any close of the stop channel) checkpoints cleanly — in-flight trials
// finish and journal, no new trials start.
package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/testbed"
)

// Condition is one noise condition of the campaign matrix: a named,
// seeded fault plan layered onto every environment (fault.PerturbEnv).
// The zero plan is the clean condition.
type Condition struct {
	Name string
	Plan fault.Plan
}

// Config describes a campaign. The zero value runs the full Table 2
// matrix: every environment, the clean condition, 10 reps each.
type Config struct {
	// Name identifies the campaign; it is pinned in the journal header
	// so a journal can never be resumed under a different campaign.
	Name string
	// Envs are the environments (default: testbed.AllEnvironments).
	Envs []testbed.Env
	// Conditions are the noise conditions (default: one clean
	// condition).
	Conditions []Condition
	// Reps is the number of independent protocol runs per (environment,
	// condition) cell (default 10 — the paper's campaign width).
	Reps int
	// Packets and Runs scale each protocol run (experiments.TrialConfig).
	Packets int
	Runs    int
	// Seed is the campaign base seed; trial i derives seed
	// Seed + i*104729, so every trial is replayable in isolation.
	Seed int64
	// Retries is how many times a failed trial is re-attempted beyond
	// the first try before it is journaled as failed.
	Retries int
	// Backoff is the host-time wait before the first retry, doubling
	// per attempt (deterministic in the attempt number; host time never
	// touches simulated results). 0 retries immediately.
	Backoff time.Duration
	// Shards partitions each trial's simulation across this many event
	// domains (internal/psim); ignored when MaxSteps is set (the step
	// budget needs the sequential engine). Bit-identical to Shards = 1.
	Shards int
	// MaxSteps is the per-trial sim-step budget — the deterministic
	// trial timeout (0 = unlimited).
	MaxSteps uint64
	// Pool fans trials out across workers (nil = sequential). Trial
	// results are index-addressed, so width never changes the table.
	Pool *parallel.Pool
	// Obs, when non-nil, receives campaign counters/gauges and threads
	// into every trial's simulation (bit-identical either way).
	Obs *obs.Obs
	// Log receives progress diagnostics (one line per trial outcome);
	// nil is silent. Campaign progress is wall-clock-ordered and
	// therefore never part of the deterministic artifact.
	Log io.Writer
	// StopAfter, when > 0, checkpoints the campaign after this many
	// records have been appended by this invocation — the deterministic
	// interrupt the resume tests and the verify.sh gate use in place of
	// killing the process at a random instant.
	StopAfter int
}

// defaults fills zero fields.
func (c Config) defaults() Config {
	if c.Name == "" {
		c.Name = "table2"
	}
	if len(c.Envs) == 0 {
		c.Envs = testbed.AllEnvironments()
	}
	if len(c.Conditions) == 0 {
		c.Conditions = []Condition{{Name: "clean"}}
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Packets == 0 {
		c.Packets = experiments.DefaultScale
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// seedStride spaces per-trial seeds (the prime the capture-replay
// harness already uses for per-run seeds).
const seedStride = 104729

// Trial is one cell of the expanded campaign matrix.
type Trial struct {
	Idx  int
	Env  testbed.Env
	Cond Condition
	Rep  int
	Seed int64
}

// Key names the trial the way the journal records it.
func (t Trial) Key() string {
	return fmt.Sprintf("%s|%s|rep%d", t.Env.Name, t.Cond.Name, t.Rep)
}

// trials expands the matrix in deterministic order: environments outer,
// conditions middle, reps inner.
func (c Config) trials() []Trial {
	out := make([]Trial, 0, len(c.Envs)*len(c.Conditions)*c.Reps)
	for _, env := range c.Envs {
		for _, cond := range c.Conditions {
			for rep := 0; rep < c.Reps; rep++ {
				idx := len(out)
				out = append(out, Trial{
					Idx: idx, Env: env, Cond: cond, Rep: rep,
					Seed: c.Seed + int64(idx)*seedStride,
				})
			}
		}
	}
	return out
}

// header builds the journal identity for this config.
func (c Config) header(trials int) header {
	h := header{
		Kind: "campaign", Version: journalVersion, Name: c.Name,
		Seed: c.Seed, Packets: c.Packets, Runs: c.Runs, Reps: c.Reps,
		MaxSteps: c.MaxSteps, Trials: trials,
	}
	for _, e := range c.Envs {
		h.Envs = append(h.Envs, e.Name)
	}
	for _, cond := range c.Conditions {
		h.Conds = append(h.Conds, cond.Name)
	}
	return h
}

// Result is a campaign invocation's outcome.
type Result struct {
	// Doc is the final rendered table — nil when the invocation was
	// interrupted before the matrix completed (resume to finish).
	Doc *report.Document
	// Planned/Completed/Failed/Skipped/Executed count trials: the full
	// matrix, terminal-ok, terminal-failed, skipped via journal replay,
	// and run by this invocation.
	Planned, Completed, Failed, Skipped, Executed int
	// RetriedAttempts counts retry attempts performed by this
	// invocation.
	RetriedAttempts int
	// JournalBytes is the journal size after this invocation.
	JournalBytes int64
	// Interrupted reports a clean checkpoint (SIGINT or StopAfter)
	// before the matrix completed.
	Interrupted bool
}

// Run executes (or resumes) a campaign against the journal at
// journalPath. Closing stop checkpoints cleanly: in-flight trials
// finish and journal, no new trials start, and the Result comes back
// with Interrupted set. A completed matrix renders the final table,
// byte-identical regardless of how many interruptions and resumes it
// took to get there.
func Run(cfg Config, journalPath string, resume bool, stop <-chan struct{}) (*Result, error) {
	cfg = cfg.defaults()
	trials := cfg.trials()
	j, done, err := openJournal(journalPath, cfg.header(len(trials)), resume)
	if err != nil {
		return nil, err
	}
	defer j.close()

	// Campaign telemetry (all nil-safe when cfg.Obs is nil).
	var (
		cDone, cFailed, cRetried, cSkipped *obs.Counter
		gBytes, gPlanned                   *obs.Gauge
	)
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		cDone = reg.Counter("campaign_trials_completed_total", "trials journaled with status ok")
		cFailed = reg.Counter("campaign_trials_failed_total", "trials journaled as failed after exhausting retries")
		cRetried = reg.Counter("campaign_trials_retried_total", "retry attempts performed")
		cSkipped = reg.Counter("campaign_resume_skipped_total", "completed trials skipped by journal replay on resume")
		gBytes = reg.Gauge("campaign_journal_bytes", "size of the campaign journal")
		gPlanned = reg.Gauge("campaign_trials_planned", "trials in the campaign matrix")
	}
	gPlanned.SetInt(int64(len(trials)))
	gBytes.SetInt(j.bytes)
	cSkipped.Add(int64(len(done)))

	res := &Result{Planned: len(trials), Skipped: len(done)}
	for _, r := range done {
		if r.Status == StatusOK {
			res.Completed++
		} else {
			res.Failed++
		}
	}
	if res.Skipped > 0 {
		cfg.logf("campaign: resume skipped %d/%d journaled trials", res.Skipped, len(trials))
	}

	var remaining []Trial
	for _, t := range trials {
		if _, ok := done[t.Idx]; !ok {
			remaining = append(remaining, t)
		}
	}

	// The stop surface: external stop (SIGINT) and the StopAfter
	// checkpoint hook both funnel into one channel the scheduler
	// watches.
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	checkpoint := func() { stopOnce.Do(func() { close(stopCh) }) }
	finished := make(chan struct{})
	defer close(finished)
	if stop != nil {
		go func() {
			select {
			case <-stop:
				checkpoint()
			case <-finished:
			}
		}()
	}

	var mu sync.Mutex
	results := make(map[int]Record, len(trials))
	for idx, r := range done {
		results[idx] = r
	}

	err = cfg.Pool.DoUntil(len(remaining), stopCh, func(i int) error {
		t := remaining[i]
		rec, retries := cfg.runTrial(t)
		added, size, err := j.append(&rec)
		if err != nil {
			return err // a journal that cannot persist aborts the campaign
		}
		gBytes.SetInt(size)
		cRetried.Add(int64(retries))
		mu.Lock()
		results[t.Idx] = rec
		res.Executed++
		res.RetriedAttempts += retries
		if rec.Status == StatusOK {
			res.Completed++
		} else {
			res.Failed++
		}
		res.JournalBytes = size
		if rec.Status == StatusOK {
			cDone.Inc()
			cfg.logf("campaign: trial %d/%d %s ok (attempt %d)", t.Idx+1, len(trials), rec.Key, rec.Attempts)
		} else {
			cFailed.Inc()
			cfg.logf("campaign: trial %d/%d %s FAILED after %d attempts: %s", t.Idx+1, len(trials), rec.Key, rec.Attempts, rec.Err)
		}
		mu.Unlock()
		if cfg.StopAfter > 0 && added >= cfg.StopAfter {
			checkpoint()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.JournalBytes = j.bytes
	if err := j.close(); err != nil {
		return nil, fmt.Errorf("campaign: closing journal: %w", err)
	}

	if len(results) < len(trials) {
		res.Interrupted = true
		cfg.logf("campaign: checkpointed with %d/%d trials journaled — resume to finish", len(results), len(trials))
		return res, nil
	}
	res.Doc = cfg.render(results)
	return res, nil
}

// runTrial executes one trial with retries and returns its terminal
// record plus the number of retry attempts performed. With span tracing
// enabled (Obs.WithSpans) every trial roots its own causal tree — one
// "attempt" child per try, so a retried trial's backoff and re-runs are
// visible in the exported trace — and, like every other instrument,
// the spans never perturb the trial: the table is bit-identical with
// tracing on or off.
func (c Config) runTrial(t Trial) (Record, int) {
	rec := Record{Kind: "trial", Idx: t.Idx, Key: t.Key(), Seed: t.Seed}
	sp := c.Obs.SpanTrace().Root("trial", "campaign",
		obs.L("trial", t.Key()), obs.L("env", t.Env.Name), obs.L("cond", t.Cond.Name))
	sp.AttrInt("seed", t.Seed)
	defer sp.End()
	retries := 0
	var lastErr error
	for a := 0; a <= c.Retries; a++ {
		if a > 0 {
			retries++
			if c.Backoff > 0 {
				// Deterministic exponential backoff: the wait depends
				// only on the attempt number.
				time.Sleep(c.Backoff << (a - 1))
			}
		}
		rec.Attempts = a + 1
		spAtt := sp.Child("attempt", "", obs.L("attempt", fmt.Sprintf("%d", a+1)))
		env := t.Env
		if !t.Cond.Plan.IsIdentity() {
			// Re-seed the plan per trial so each rep sees fresh (but
			// replayable) noise: the derived seed is a pure function of
			// the trial identity.
			plan := t.Cond.Plan
			plan.Seed ^= uint64(t.Seed)
			env = plan.PerturbEnv(env)
		}
		out, err := experiments.Run(env, experiments.TrialConfig{
			Packets: c.Packets, Runs: c.Runs, Seed: t.Seed,
			MaxSteps: c.MaxSteps, Obs: c.Obs, Shards: c.Shards,
		})
		if err != nil {
			lastErr = err
			spAtt.SetError(err)
			spAtt.End()
			continue
		}
		if len(out.Traces) == 0 || out.Traces[0].Len() == 0 {
			// The middleboxes saw traffic but the recorder captured an
			// empty reference trace (e.g. an injector black-holed the
			// recorder's ingress). Comparing empty-vs-empty replays
			// would report a degenerate, perfect-looking κ = 1, so the
			// trial is degraded instead of silently scored.
			lastErr = fmt.Errorf("campaign: %s: empty reference trace — recorder captured 0 of %d recorded packets", t.Key(), out.Recorded)
			spAtt.SetError(lastErr)
			spAtt.End()
			continue
		}
		spAtt.End()
		rec.Status = StatusOK
		rec.Recorded = out.Recorded
		for _, m := range out.Missing {
			if m > rec.MaxMissing {
				rec.MaxMissing = m
			}
		}
		s := out.Summary()
		rec.Mean = &s.Mean
		sp.Attr("kappa", fmt.Sprintf("%.4f", s.Mean.Kappa))
		return rec, retries
	}
	rec.Status = StatusFailed
	rec.Err = lastErr.Error()
	sp.SetError(lastErr)
	return rec, retries
}

// logf writes one progress line (wall-clock diagnostics, never part of
// the deterministic artifact).
func (c Config) logf(format string, args ...any) {
	if c.Log == nil {
		return
	}
	fmt.Fprintf(c.Log, format+"\n", args...)
}
