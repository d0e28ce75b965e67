package runner_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/obs"
	"flashsim/internal/runner"
)

// updateReport rewrites testdata/report.{prom,json} from what the
// collector reports now. Only a change that means to move the metrics
// contract runs it.
var updateReport = flag.Bool("report.update", false, "rewrite testdata/report.prom and report.json")

// TestReportGolden pins both renderings of the metrics report — the
// Prometheus exposition flashd serves and the -metrics-out JSON — over
// two real runs and a memo hit through one collector: fft/1p under
// SimOS-Mipsy, gups/8p under the hardware reference, and the first
// again under another label. Wall and CPU time are the only fields not
// a function of the inputs; they are left zero.
func TestReportGolden(t *testing.T) {
	fft := runner.Job{Config: core.SimOSMipsy(1, 225, true), Prog: registryProgram(t, "fft", 1, true)}
	renamed := fft
	renamed.Config.Name = "renamed"
	jobs := []runner.Job{fft, {Config: hw.Config(8, true), Prog: registryProgram(t, "gups", 8, true)}, renamed}

	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	p := runner.New(1, store)
	p.SetMetrics(col)
	outs := p.RunAll(context.Background(), jobs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Cached != (i == 2) {
			t.Fatalf("job %d: cached = %v", i, o.Cached)
		}
	}
	rep := col.Snapshot()
	rep.Runner = p.Stats().Counters()
	rep.Runner.WallNS, rep.Runner.CPUNS = 0, 0

	var prom bytes.Buffer
	if err := rep.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		path string
		got  []byte
	}{{"testdata/report.prom", prom.Bytes()}, {"testdata/report.json", js}} {
		if *updateReport {
			if err := os.WriteFile(g.path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from what the collector reports now (-report.update rewrites it):\n%s", g.path, g.got)
		}
	}
}
