package obs_test

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flashsim/internal/cache"
	"flashsim/internal/machine"
	"flashsim/internal/obs"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/tlb"
)

// parseProm is a strict-enough parser for the exposition format: it
// validates every line is a `# HELP`, `# TYPE`, or sample line, and
// returns samples keyed by name{sortedlabels}. A malformed line fails
// the test.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	out := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[f[2]] = true
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name, labels, value := m[1], m[2], m[3]
		if !typed[name] {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		if labels != "" {
			inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
			for _, pair := range splitLabels(inner) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[name+labels] = v
	}
	return out
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}

func sampleReport() obs.Report {
	c := obs.NewCollector()
	a := machine.Result{
		Config: `Sim "A"`, Workload: "fft", Procs: 2,
		Instructions: 1000, Exec: 50, Total: 80,
		Metrics: machine.Metrics{
			Queue: sim.QueueStats{Scheduled: 10, Fired: 9, Recycled: 8},
			L1:    cache.Stats{Hits: 7, Misses: 3},
			L2:    cache.Stats{Hits: 2, Misses: 1},
			TLB:   tlb.Stats{Misses: 4},
			Dir:   proto.DirStats{Transitions: 5},
		},
	}
	a.Metrics.Dir.CaseCounts[proto.RemoteClean] = 2
	c.Record(a)
	c.Record(machine.Result{
		Config: "Sim B", Workload: "lu", Procs: 1,
		Instructions: 500, Exec: 20, Total: 30,
	})
	rep := c.Snapshot()
	rep.Runner = obs.RunnerCounters{Jobs: 3, Ran: 2, CacheHits: 1, WallNS: 2_500_000_000, CPUNS: 3_000_000_000}
	return rep
}

// TestWritePrometheusParsesAndAgrees renders a report and checks the
// output (a) parses as exposition format and (b) carries exactly the
// report's totals.
func TestWritePrometheusParsesAndAgrees(t *testing.T) {
	rep := sampleReport()
	var b strings.Builder
	if err := rep.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())

	want := map[string]float64{
		"flashsim_runner_jobs_total":                    3,
		"flashsim_runner_runs_total":                    2,
		"flashsim_runner_cache_hits_total":              1,
		"flashsim_runner_wall_seconds_total":            2.5,
		"flashsim_runner_cpu_seconds_total":             3,
		"flashsim_runs_total":                           2,
		"flashsim_instructions_total":                   1500,
		"flashsim_exec_ticks_total":                     70,
		"flashsim_queue_scheduled_total":                10,
		`flashsim_cache_hits_total{level="l1"}`:         7,
		`flashsim_cache_misses_total{level="l2"}`:       1,
		"flashsim_tlb_misses_total":                     4,
		"flashsim_dir_transitions_total":                5,
		`flashsim_dir_cases_total{case="remote-clean"}`: 2,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing sample %s", k)
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}

	// The quoted config name must survive label escaping and parse.
	key := `flashsim_config_runs_total{config="Sim \"A\"",procs="2",workload="fft"}`
	if got := samples[key]; got != 1 {
		t.Errorf("per-config sample %s = %g, want 1; have keys:\n%s", key, got, strings.Join(keysOf(samples), "\n"))
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWritePrometheusEmptyReport: an empty report still renders valid
// exposition text (all-zero counters), so a freshly-booted daemon's
// /metrics is scrapable before any job arrives.
func TestWritePrometheusEmptyReport(t *testing.T) {
	var b strings.Builder
	if err := (obs.Report{Schema: obs.ReportSchema}).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())
	if samples["flashsim_runs_total"] != 0 {
		t.Error("empty report runs nonzero")
	}
	if _, ok := samples["flashsim_runner_jobs_total"]; !ok {
		t.Error("runner counters missing from empty report")
	}
}
