package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// checkGolden byte-compares got against testdata/golden/<name>, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (run go test -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// runCLI invokes the command in-process and returns stdout; stderr (the
// wall-clock-dependent scheduler/telemetry diagnostics) is swallowed —
// only stdout is contractually deterministic.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestGoldenList pins the artifact index.
func TestGoldenList(t *testing.T) {
	checkGolden(t, "list.txt", runCLI(t, "-list"))
}

// TestGoldenTable2 pins the scaled-down Table 2 text byte-for-byte: the
// whole pipeline — testbed synthesis, replay simulation, §3 metrics,
// table rendering — is deterministic in (-packets, -runs, -seed).
func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2.txt",
		runCLI(t, "-run", "table2", "-packets", "1500", "-runs", "2", "-seed", "7", "-workers", "3"))
}

// TestGoldenFig9 pins the scaled-down Figure 9 artifact — the paper's
// κ-degradation figure that cmd/faultsweep reproduces qualitatively from
// the fault layer; this golden is its full-simulation counterpart.
func TestGoldenFig9(t *testing.T) {
	checkGolden(t, "fig9.txt",
		runCLI(t, "-run", "fig9", "-packets", "1200", "-runs", "2", "-seed", "7", "-workers", "2"))
}

// TestStdoutIndependentOfWorkers: the PR 3 contract, held at the CLI
// boundary — scheduler width changes wall-clock, never bytes. (Width 3
// is pinned by the golden above; width 1 must match it.)
func TestStdoutIndependentOfWorkers(t *testing.T) {
	wide := runCLI(t, "-run", "table2", "-packets", "1500", "-runs", "2", "-seed", "7", "-workers", "3")
	narrow := runCLI(t, "-run", "table2", "-packets", "1500", "-runs", "2", "-seed", "7", "-workers", "1")
	if !bytes.Equal(wide, narrow) {
		t.Fatalf("stdout depends on -workers:\n--- workers=3 ---\n%s\n--- workers=1 ---\n%s", wide, narrow)
	}
}

// TestUnknownArtifactFails: a bad id is reported as an error, with
// nothing emitted on stdout.
func TestUnknownArtifactFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "no-such-figure"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown artifact id did not error")
	}
	if stdout.Len() != 0 {
		t.Fatalf("failed run wrote to stdout: %q", stdout.String())
	}
}

// campaignArgs returns the flags for a small two-condition campaign
// writing its journal to the given path.
func campaignArgs(journal string, extra ...string) []string {
	args := []string{
		"-campaign", "demo",
		"-journal", journal,
		"-envs", "Local Single-Replayer",
		"-conditions", "clean;drop=0.02,jitter=2e3",
		"-reps", "2", "-packets", "1000", "-runs", "2", "-seed", "7",
	}
	return append(args, extra...)
}

// TestGoldenCampaign pins the campaign table rendered by an
// uninterrupted run.
func TestGoldenCampaign(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "demo.journal")
	checkGolden(t, "campaign.txt", runCLI(t, campaignArgs(journal)...))
}

// TestCampaignResumeByteIdenticalCLI: checkpoint the campaign after
// every single trial and resume until it completes; stdout must be
// byte-identical to the uninterrupted golden run.
func TestCampaignResumeByteIdenticalCLI(t *testing.T) {
	dir := t.TempDir()
	full := runCLI(t, campaignArgs(filepath.Join(dir, "full.journal"))...)

	journal := filepath.Join(dir, "chunked.journal")
	out := runCLI(t, campaignArgs(journal, "-stop-after", "1")...)
	if len(out) != 0 {
		t.Fatalf("checkpointed run wrote a table:\n%s", out)
	}
	for i := 0; len(out) == 0; i++ {
		if i > 20 {
			t.Fatal("campaign never completed under -resume")
		}
		out = runCLI(t, campaignArgs(journal, "-stop-after", "1", "-resume")...)
	}
	if !bytes.Equal(out, full) {
		t.Fatalf("resumed campaign stdout differs:\n--- resumed ---\n%s--- uninterrupted ---\n%s", out, full)
	}
}

// TestGoldenDifferentiate pins the -differentiate convenience path:
// the same verdict-table contract cmd/diffdetect carries with the full
// knob set, here driven off the artifact CLI's shared flags.
func TestGoldenDifferentiate(t *testing.T) {
	got := runCLI(t, "-differentiate", "-workload", "voip",
		"-packets", "1200", "-runs", "2", "-seed", "11", "-workers", "2")
	if !strings.Contains(string(got), "differentiation: DETECTED") {
		t.Fatalf("throttled voip not flagged:\n%s", got)
	}
	checkGolden(t, "differentiate.txt", got)
}

// TestDifferentiateNeedsWorkload: -differentiate without an app is an
// error, not a silent CBR run.
func TestDifferentiateNeedsWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-differentiate"}, &stdout, &stderr); err == nil {
		t.Fatal("-differentiate without -workload accepted")
	}
}

// TestGoldenWorkloadArtifact pins an artifact rendered from
// application traffic instead of CBR: -workload threads through the
// shared TrialConfig into every harness.
func TestGoldenWorkloadArtifact(t *testing.T) {
	checkGolden(t, "fig9_rpc.txt",
		runCLI(t, "-run", "fig9", "-workload", "rpc", "-packets", "1200", "-runs", "2", "-seed", "7", "-workers", "2"))
}

// TestCampaignJournalGuardCLI: a fresh run over an existing journal is
// refused with a pointer at -resume.
func TestCampaignJournalGuardCLI(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "guard.journal")
	runCLI(t, campaignArgs(journal)...)
	var stdout, stderr bytes.Buffer
	err := run(campaignArgs(journal), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("clobbering an existing journal: err=%v", err)
	}
}
