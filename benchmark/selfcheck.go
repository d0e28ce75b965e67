package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// bounds is the share of the parent's median by which each end-to-end
// metric may worsen before a change counts as a regression. It repeats
// BENCHMARK.json, which the driver reads; a test keeps the two equal.
var bounds = map[string]float64{
	"setup_s":           0.25,
	"op_ms_p50":         0.25,
	"host_ns_per_instr": 0.25,
	"allocs_per_op":     0.01,
	"alloc_kb_per_op":   0.02,
	"err_pct":           0.02,
}

// timings are the clock-read metrics whose spread is gated. A single run
// of one of them further from its set median than the metric's bound
// means the host is too noisy to measure on right now. (setup_s, half a
// second long, is compared by set medians only, as the driver does.)
var timings = map[string]bool{"op_ms_p50": true, "host_ns_per_instr": true}

// childRun is what the selfcheck keeps of one gated run.
type childRun struct {
	metrics map[string]float64
	digest  string
}

// runChild runs one gated run in a fresh process of this binary, so
// every run pays its own start-up and set-up like a driver run does.
func runChild(exe string, w *workloadDef, o options, seed uint64) (childRun, error) {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: last line is not a result: %w", w.Name, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return childRun{}, fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed, res.Failed, res.Attempted)
	}
	run := childRun{metrics: make(map[string]float64)}
	for name, m := range res.Metrics {
		run.metrics[name] = m.Value
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "sim_digest"); ok {
			run.digest = strings.TrimSpace(rest)
		}
	}
	return run, nil
}

// runSelfcheck runs two full sets of gated runs on this binary and
// compares them the way the driver compares a change with its parent.
// Runs go round-robin across workloads and alternate between the sets,
// so slow host drift lands on both sets and on every workload alike.
// Round r of both sets uses seed o.seed+r: counts, err_pct and the
// digest of the two must then be bit-equal.
func runSelfcheck(o options, rounds int, out io.Writer) error {
	if rounds < 2 {
		return fmt.Errorf("-rounds must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// runs[set][workload index] in round order.
	var runs [2][][]childRun
	for s := range runs {
		runs[s] = make([][]childRun, len(workloads))
	}
	for r := 0; r < rounds; r++ {
		for s := 0; s < 2; s++ {
			for wi := range workloads {
				w := &workloads[wi]
				run, err := runChild(exe, w, o, o.seed+uint64(r))
				if err != nil {
					return err
				}
				runs[s][wi] = append(runs[s][wi], run)
				fmt.Fprintf(out, "round %d set %c %-13s op_ms_p50 %.4g ms  host_ns_per_instr %.4g  setup_s %.4g\n",
					r, 'A'+s, w.Name, run.metrics["op_ms_p50"], run.metrics["host_ns_per_instr"], run.metrics["setup_s"])
			}
		}
	}

	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	for wi, w := range workloads {
		fmt.Fprintf(out, "\n%s\n", w.Name)
		for r := 0; r < rounds; r++ {
			a, b := runs[0][wi][r], runs[1][wi][r]
			if a.digest != b.digest || a.digest == "" {
				fail("%s round %d: sim_digest %q vs %q", w.Name, r, a.digest, b.digest)
			}
			if a.metrics["err_pct"] != b.metrics["err_pct"] {
				fail("%s round %d: err_pct %v vs %v is not bit-equal", w.Name, r, a.metrics["err_pct"], b.metrics["err_pct"])
			}
		}
		for _, name := range gated {
			var med [2]float64
			for s := 0; s < 2; s++ {
				vals := make([]float64, rounds)
				for r := range vals {
					vals[r] = runs[s][wi][r].metrics[name]
				}
				med[s] = median(vals)
				spread := quartileSpread(vals)
				fmt.Fprintf(out, "  %-18s set %c median %-12.6g spread %6.3f%%  runs %.6g\n", name, 'A'+s, med[s], 100*spread, vals)
				if timings[name] {
					for r, v := range vals {
						if math.Abs(v-med[s]) > bounds[name]*med[s] {
							fail("%s %s: set %c run %d = %.6g is more than %.0f%% from the set median %.6g", w.Name, name, 'A'+s, r, v, 100*bounds[name], med[s])
						}
					}
				}
				if name != "setup_s" && spread > bounds[name] {
					fail("%s %s: set %c spread %.3f%% exceeds the bound %.0f%%", w.Name, name, 'A'+s, 100*spread, 100*bounds[name])
				}
			}
			diff := (med[1] - med[0]) / med[0]
			fmt.Fprintf(out, "  %-18s B vs A %+.3f%% (bound %.0f%%)\n", name, 100*diff, 100*bounds[name])
			if math.Abs(diff) > bounds[name] {
				fail("%s %s: set medians differ by %.3f%%, bound %.0f%%", w.Name, name, 100*diff, 100*bounds[name])
			}
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(out, "\nselfcheck FAILED:\n  %s\n", strings.Join(failures, "\n  "))
		return fmt.Errorf("selfcheck: %d check(s) failed", len(failures))
	}
	fmt.Fprintln(out, "\nselfcheck passed: set medians agree within every bound, every timing run is within its bound of its set median, counts and digests are bit-equal per seed")
	return nil
}
