package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// TestConfigSpecSampling: a schedule reaches a spec's configuration the
// way every other parameter does, as sampling.* settings — the form the
// CLIs' -sample flag takes too. No setting means unsampled, and an
// enabled schedule with no period is refused like any unrunnable spec.
func TestConfigSpecSampling(t *testing.T) {
	base := ConfigSpec{Base: "simos-mipsy", Procs: 2}
	cfg, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sampling.Enabled {
		t.Error("spec without sampling enabled a schedule")
	}

	base.Set = []param.Setting{{Path: "sampling.enabled", Value: "true"}}
	if _, err = base.Config(); err == nil {
		t.Error("an enabled schedule with no period was accepted")
	}

	base.Set = append(base.Set,
		param.Setting{Path: "sampling.period_instrs", Value: "50000"},
		param.Setting{Path: "sampling.window_instrs", Value: "2000"},
		param.Setting{Path: "sampling.cold_state", Value: "true"})
	cfg, err = base.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := machine.SamplingConfig{Enabled: true, Period: 50000, Window: 2000, ColdState: true}
	if cfg.Sampling != want {
		t.Errorf("schedule = %+v, want %+v", cfg.Sampling, want)
	}
}

// TestServerSampledRun submits a sampled run and checks the result
// carries the sampling metadata — and memoizes separately from the
// full-detail run of the same workload.
func TestServerSampledRun(t *testing.T) {
	_, ts, gate := newTestServer(t, Options{})
	close(gate)

	sampledBody := []byte(`{"base":"simos-mipsy","procs":1,
		"set":[{"path":"sampling.enabled","value":"true"},{"path":"sampling.period_instrs","value":"5000"},
			{"path":"sampling.window_instrs","value":"500"},{"path":"sampling.warmup_instrs","value":"100"}],
		"workload":{"name":"snbench.restart","lines":64}}`)
	resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", sampledBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled submit: status %d, body %s", resp.StatusCode, data)
	}
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Job.State != StateDone {
		t.Fatalf("job state = %s, want done", rr.Job.State)
	}
	if !rr.Result.Sampled {
		t.Fatalf("sampled run result not marked Sampled: %+v", rr.Result.Sampling)
	}
	if rr.Result.Sampling.Windows == 0 || rr.Result.Sampling.DetailedInstrs == 0 {
		t.Errorf("sampling accounting empty: %+v", rr.Result.Sampling)
	}

	fullBody := []byte(`{"base":"simos-mipsy","procs":1,"workload":{"name":"snbench.restart","lines":64}}`)
	resp, data = postJSON(t, ts.URL+"/v1/runs?wait=true", fullBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full submit: status %d, body %s", resp.StatusCode, data)
	}
	var full RunResponse
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if full.Job.Cached || full.Result.Sampled {
		t.Errorf("full-detail run aliased the sampled one: cached=%v sampled=%v",
			full.Job.Cached, full.Result.Sampled)
	}
}
