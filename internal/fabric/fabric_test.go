package fabric_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/experiments"
	"repro/internal/fabric"
)

// tinyFederation returns the canonical two-site test federation:
// site A (16 cores, 4 dedicated NICs, PTP) and site B (8 cores, no
// dedicated NICs, no PTP). Capacity and rollback tests depend on these
// exact numbers.
func tinyFederation() *fabric.Federation {
	return fabric.NewFederation(
		fabric.SiteSpec{Name: "A", Cores: 16, RAMGiB: 64, DiskGiB: 500, SharedVFs: 4, DedicatedNICs: 4, PTP: true},
		fabric.SiteSpec{Name: "B", Cores: 8, RAMGiB: 32, DiskGiB: 200, SharedVFs: 2, DedicatedNICs: 0, PTP: false},
	)
}

// paperSlice builds the artifact's three-VM topology (generator →
// replayer → recorder on an L2Bridge) on site A, with every NIC of the
// given model. The slice is left in draft state.
func paperSlice(tb testing.TB, f *fabric.Federation, model fabric.NICModel) *fabric.Slice {
	tb.Helper()
	s := f.NewSlice("choir")
	gen, err := s.AddNode("generator", "A", 4, 16, 100)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := s.AddNode("replayer", "A", 4, 16, 100)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := s.AddNode("recorder", "A", 4, 16, 100)
	if err != nil {
		tb.Fatal(err)
	}
	gi, _ := gen.AddNIC("g0", model)
	ri, _ := rep.AddNIC("r0", model)
	ci, _ := rec.AddNIC("c0", model)
	if _, err := s.AddService("net", fabric.L2Bridge, gi, ri, ci); err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestSliceLifecycle(t *testing.T) {
	f := tinyFederation()
	s := paperSlice(t, f, fabric.DedicatedConnectX6)
	if s.State() != fabric.StateDraft {
		t.Fatalf("state %v", s.State())
	}
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	if s.State() != fabric.StateActive {
		t.Fatalf("state %v after submit", s.State())
	}
	site, _ := f.Site("A")
	if site.Utilization() == 0 {
		t.Fatal("submit did not allocate")
	}
	if err := s.Delete(); err != nil {
		t.Fatal(err)
	}
	if site.Utilization() != 0 {
		t.Fatal("delete did not release")
	}
	if err := s.Delete(); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	f := tinyFederation()
	empty := f.NewSlice("empty")
	if err := empty.Submit(); err == nil {
		t.Fatal("empty slice accepted")
	}
	s := paperSlice(t, f, fabric.DedicatedConnectX6)
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(); err == nil {
		t.Fatal("double submit accepted")
	}
	// Mutation after submit rejected.
	if _, err := s.AddNode("late", "A", 1, 1, 1); err == nil {
		t.Fatal("AddNode on active slice accepted")
	}
	if _, err := s.Nodes()[0].AddNIC("late", fabric.SharedNIC); err == nil {
		t.Fatal("AddNIC on active slice accepted")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	f := tinyFederation()
	// Site A has 4 dedicated NICs; a slice wanting 5 must fail and
	// leave no residue.
	s := f.NewSlice("greedy")
	n, _ := s.AddNode("n", "A", 4, 16, 100)
	for i := 0; i < 5; i++ {
		n.AddNIC(fmt.Sprintf("d%d", i), fabric.DedicatedConnectX6)
	}
	if err := s.Submit(); err == nil {
		t.Fatal("over-allocation accepted")
	}
	site, _ := f.Site("A")
	if site.Utilization() != 0 {
		t.Fatal("failed submit leaked resources")
	}
}

func TestRollbackAcrossSites(t *testing.T) {
	f := tinyFederation()
	s := f.NewSlice("cross")
	a, _ := s.AddNode("a", "A", 4, 16, 100)
	a.AddNIC("x", fabric.SharedNIC)
	b, _ := s.AddNode("b", "B", 4, 16, 100)
	// Site B has zero dedicated NICs: this demand must fail the whole
	// submit and roll back site A.
	b.AddNIC("y", fabric.DedicatedConnectX6)
	if err := s.Submit(); err == nil {
		t.Fatal("impossible cross-site slice accepted")
	}
	siteA, _ := f.Site("A")
	if siteA.Utilization() != 0 {
		t.Fatal("rollback failed for site A")
	}
}

func TestServiceValidation(t *testing.T) {
	f := tinyFederation()
	s := f.NewSlice("svc")
	na, _ := s.AddNode("na", "A", 1, 4, 10)
	nb, _ := s.AddNode("nb", "B", 1, 4, 10)
	ia, _ := na.AddNIC("ia", fabric.SharedNIC)
	ib, _ := nb.AddNIC("ib", fabric.SharedNIC)

	// L2Bridge across sites is invalid.
	if _, err := s.AddService("bad", fabric.L2Bridge, ia, ib); err == nil {
		t.Fatal("cross-site L2Bridge accepted")
	}
	// L2PTP wants exactly two interfaces.
	if _, err := s.AddService("bad2", fabric.L2PTP, ia); err == nil {
		t.Fatal("one-ended L2PTP accepted")
	}
	if _, err := s.AddService("ok", fabric.L2PTP, ia, ib); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddService("none", fabric.FABNetv4); err == nil {
		t.Fatal("service without interfaces accepted")
	}
	// Foreign interface rejected.
	other := f.NewSlice("other")
	no, _ := other.AddNode("n", "A", 1, 4, 10)
	io, _ := no.AddNIC("i", fabric.SharedNIC)
	if _, err := s.AddService("foreign", fabric.FABNetv4, io); err == nil {
		t.Fatal("foreign interface accepted")
	}
}

func TestNodeValidation(t *testing.T) {
	f := tinyFederation()
	s := f.NewSlice("v")
	if _, err := s.AddNode("n", "NOPE", 1, 1, 1); err == nil {
		t.Fatal("unknown site accepted")
	}
	s.AddNode("n", "A", 1, 1, 1)
	if _, err := s.AddNode("n", "A", 1, 1, 1); err == nil {
		t.Fatal("duplicate node name accepted")
	}
	if _, err := s.AddNode("z", "A", 0, 1, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestLeastUtilizedSite(t *testing.T) {
	f := tinyFederation()
	site, err := f.LeastUtilizedSite(true)
	if err != nil {
		t.Fatal(err)
	}
	if site.Spec().Name != "A" {
		t.Fatalf("picked %s", site.Spec().Name)
	}
	// Fill A; with PTP not required, B becomes least utilized.
	s := paperSlice(t, f, fabric.SharedNIC)
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	site, err = f.LeastUtilizedSite(false)
	if err != nil {
		t.Fatal(err)
	}
	if site.Spec().Name != "B" {
		t.Fatalf("picked %s after loading A", site.Spec().Name)
	}
	// Require PTP from a federation with none.
	noPTP := fabric.NewFederation(fabric.SiteSpec{Name: "X", Cores: 1, RAMGiB: 1, DiskGiB: 1})
	if _, err := noPTP.LeastUtilizedSite(true); err == nil {
		t.Fatal("PTP requirement not enforced")
	}
}

func TestEnvironmentFromSlice(t *testing.T) {
	f := tinyFederation()
	s := paperSlice(t, f, fabric.DedicatedConnectX6)
	plan := fabric.ExperimentPlan{Generator: "generator", Recorder: "recorder", Replayers: []string{"replayer"}}
	if _, err := s.Environment(plan); err == nil {
		t.Fatal("draft slice instantiated")
	}
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	env, err := s.Environment(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Name, "Dedicated 40") {
		t.Fatalf("env %q, want dedicated 40G family", env.Name)
	}
	if env.Replayers != 1 || env.RateGbps != 40 {
		t.Fatalf("env shape: %+v", env)
	}
	// PTP site keeps the PTP discipline.
	if env.Sync.Residual.(interface{ Mean() float64 }).Mean() != clock.PTPDefault().Residual.Mean() {
		t.Fatal("PTP site should keep PTP sync")
	}
}

func TestEnvironmentSharedAndRate(t *testing.T) {
	f := tinyFederation()
	s := paperSlice(t, f, fabric.SharedNIC)
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	env, err := s.Environment(fabric.ExperimentPlan{
		Generator: "generator", Recorder: "recorder",
		Replayers: []string{"replayer"}, RateGbps: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Name, "Shared 80") {
		t.Fatalf("env %q", env.Name)
	}
}

func TestEnvironmentValidation(t *testing.T) {
	f := tinyFederation()
	s := paperSlice(t, f, fabric.SharedNIC)
	s.Submit()
	cases := []fabric.ExperimentPlan{
		{Generator: "nope", Recorder: "recorder", Replayers: []string{"replayer"}},
		{Generator: "generator", Recorder: "nope", Replayers: []string{"replayer"}},
		{Generator: "generator", Recorder: "recorder"},
		{Generator: "generator", Recorder: "recorder", Replayers: []string{"nope"}},
	}
	for i, plan := range cases {
		if _, err := s.Environment(plan); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestEndToEndSliceExperiment(t *testing.T) {
	// The artifact workflow in miniature: provision → instantiate →
	// run → metrics.
	f := fabric.DefaultFederation()
	site, err := f.LeastUtilizedSite(true)
	if err != nil {
		t.Fatal(err)
	}
	s := f.NewSlice("artifact")
	gen, _ := s.AddNode("generator", site.Spec().Name, 4, 16, 100)
	rep, _ := s.AddNode("replayer", site.Spec().Name, 4, 16, 100)
	rec, _ := s.AddNode("recorder", site.Spec().Name, 4, 16, 100)
	gi, _ := gen.AddNIC("g", fabric.DedicatedConnectX6)
	ri, _ := rep.AddNIC("r", fabric.DedicatedConnectX6)
	ci, _ := rec.AddNIC("c", fabric.DedicatedConnectX6)
	if _, err := s.AddService("net", fabric.L2Bridge, gi, ri, ci); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(); err != nil {
		t.Fatal(err)
	}
	env, err := s.Environment(fabric.ExperimentPlan{
		Generator: "generator", Recorder: "recorder", Replayers: []string{"replayer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(env, experiments.TrialConfig{Packets: 6000, Runs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean.Kappa <= 0 || res.Mean.Kappa > 1 {
		t.Fatalf("κ = %v", res.Mean.Kappa)
	}
	if err := s.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationScalesStalls(t *testing.T) {
	// A busy site must pressure VMs harder than an idle one.
	f := fabric.NewFederation(fabric.SiteSpec{Name: "BUSY", Cores: 16, RAMGiB: 100, DiskGiB: 1000, SharedVFs: 10, DedicatedNICs: 5, PTP: true})
	// Pre-load the site to ~75% cores with another tenant.
	tenant := f.NewSlice("tenant")
	tn, _ := tenant.AddNode("t", "BUSY", 12, 10, 10)
	tn.AddNIC("t0", fabric.SharedNIC)
	if err := tenant.Submit(); err != nil {
		t.Fatal(err)
	}

	mk := func(fed *fabric.Federation) float64 {
		s := fed.NewSlice("exp")
		g, _ := s.AddNode("g", fed.SiteNames()[0], 1, 4, 10)
		r, _ := s.AddNode("r", fed.SiteNames()[0], 1, 4, 10)
		c, _ := s.AddNode("c", fed.SiteNames()[0], 1, 4, 10)
		gi, _ := g.AddNIC("g0", fabric.DedicatedConnectX6)
		ri, _ := r.AddNIC("r0", fabric.DedicatedConnectX6)
		ci, _ := c.AddNIC("c0", fabric.DedicatedConnectX6)
		s.AddService("net", fabric.L2Bridge, gi, ri, ci)
		if err := s.Submit(); err != nil {
			t.Fatal(err)
		}
		env, err := s.Environment(fabric.ExperimentPlan{Generator: "g", Recorder: "c", Replayers: []string{"r"}})
		if err != nil {
			t.Fatal(err)
		}
		return env.StallGap.Mean()
	}

	idle := fabric.NewFederation(fabric.SiteSpec{Name: "IDLE", Cores: 1000, RAMGiB: 10000, DiskGiB: 100000, SharedVFs: 10, DedicatedNICs: 5, PTP: true})
	busyGap := mk(f)
	idleGap := mk(idle)
	if busyGap >= idleGap {
		t.Fatalf("busy site stall gap %v should be shorter than idle %v", busyGap, idleGap)
	}
}
