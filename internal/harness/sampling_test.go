package harness_test

import (
	"strings"
	"testing"

	"flashsim/internal/harness"
	"flashsim/internal/machine"
)

func TestExperimentSamplingQuick(t *testing.T) {
	d, text, err := quick().ExperimentSampling(2)
	if err != nil {
		t.Fatal(err)
	}
	checkSampling(t, d, []int{2}, text)
}

func checkSampling(t *testing.T, d harness.SamplingData, sizes []int, text string) {
	apps := harness.ScaleQuick.FixedApps()
	if len(d.Rows) != len(sizes)*len(apps) {
		t.Fatalf("got %d rows, want one per workload (%d) and size %v", len(d.Rows), len(apps), sizes)
	}
	for i, r := range d.Rows {
		if want := sizes[i/len(apps)]; r.Procs != want {
			t.Errorf("%s: procs = %d, want %d", r.Workload, r.Procs, want)
		}
		if r.Class != "omission" {
			t.Errorf("%s: class = %q, want omission", r.Workload, r.Class)
		}
		if r.Relative <= 0 || r.Relative > 1.5 {
			t.Errorf("%s: relative = %g, outside a plausible range", r.Workload, r.Relative)
		}
		if r.DetailedFrac <= 0 || r.DetailedFrac >= 1 {
			t.Errorf("%s: detailed fraction = %g, want in (0, 1)", r.Workload, r.DetailedFrac)
		}
		if r.Windows == 0 {
			t.Errorf("%s: no windows", r.Workload)
		}
	}
	if !d.Schedule.Enabled {
		t.Error("schedule not recorded")
	}
	if !strings.Contains(text, "omission") || !strings.Contains(text, "max relative error") {
		t.Errorf("render missing expected content:\n%s", text)
	}
}

// TestExperimentSamplingHonorsOverride pins that a session override
// enabling a custom schedule samples the sampled side only: the
// baseline stays full-detail, so the comparison stays meaningful.
func TestExperimentSamplingHonorsOverride(t *testing.T) {
	s := harness.NewSession(harness.ScaleQuick)
	s.Override = func(cfg machine.Config) (machine.Config, error) {
		cfg.Sampling.Enabled = true
		cfg.Sampling.Period = 50000
		cfg.Sampling.Window = 10000
		cfg.Sampling.Warmup = 1000
		return cfg, nil
	}
	d, _, err := s.ExperimentSampling(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schedule.Period != 50000 || d.Schedule.Window != 10000 {
		t.Errorf("override schedule not used: %+v", d.Schedule)
	}
	for _, r := range d.Rows {
		if r.DetailedFrac <= 0.1 {
			t.Errorf("%s: detailed fraction %g too low for a 20%% window schedule", r.Workload, r.DetailedFrac)
		}
	}
}
