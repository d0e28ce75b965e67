package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/workload"
)

// flashsim drives the CLI in-process.
func flashsim(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

var (
	timingLine = regexp.MustCompile(`(?m)^\[(runner: .*|.* took .*)\]\n`)
	wallClock  = regexp.MustCompile(`(?m)\([^()]* wall, [^()]* instr/s\)|\bin [0-9.]+(ns|µs|ms|s)$`)
	blankRun   = regexp.MustCompile(`\n{3,}`)
)

// stable removes what legitimately differs between two runs of one
// command: the [runner: …] and [… took …] lines, wall-clock figures
// inside a line, and the blank-line padding around the removed lines.
func stable(s string) string {
	s = timingLine.ReplaceAllString(s, "")
	s = wallClock.ReplaceAllString(s, "~")
	s = blankRun.ReplaceAllString(s, "\n\n")
	return strings.TrimRight(s, "\n") + "\n"
}

// TestOutputMatchesTheFoldedCLIs pins the fold: testdata/ holds the
// stdout of the binaries this command replaced (built at the commit
// before the fold, passed through stable), and every subcommand must
// still print the same thing. The tuning row's blocks carry what `tune`
// printed (validate_tuning.txt is the full-scale row). The study
// outputs are seeded simulations, identical at any -jobs.
func TestOutputMatchesTheFoldedCLIs(t *testing.T) {
	dir := t.TempDir()
	fltr := filepath.Join(dir, "fft.fltr")
	for _, tc := range []struct {
		golden string // files under testdata/, concatenated
		args   string
	}{
		// validate -all -quick, then speedup -all -quick, on one session.
		{"validate_all_quick.txt speedup_all_quick.txt", "validate -quick table1 table2 table3 figure1 figure2 tuning figure3 figure4" +
			" tlb blocking muldiv defects trace figure5 figure6 figure7"},
		{"validate_tuning.txt", "validate tuning"},
		{"worksweep_quick_gups_4.txt", "worksweep -quick -workloads gups -sizes 4"},
		{"run_fft_2p_quick.txt", "run -app fft -procs 2 -full=false"},
		{"trace_capture.txt", "trace capture -app fft -procs 2 -full=false -o " + fltr},
		{"trace_inspect.txt", "trace inspect " + fltr},
		{"trace_replay.txt", "trace replay -sim simos-mipsy " + fltr},
	} {
		var want string
		for _, name := range strings.Fields(tc.golden) {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			want += string(data) + "\n"
		}
		stdout, stderr, status := flashsim(strings.Fields(tc.args)...)
		if status != 0 {
			t.Fatalf("flashsim %s: exit %d\n%s", tc.args, status, stderr)
		}
		got := stable(strings.ReplaceAll(stdout, dir+string(filepath.Separator), ""))
		if want = stable(want); got != want {
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("flashsim %s: output departs from %s at line %d:\n got: %q\nwant: %q",
				tc.args, tc.golden, i+1, strings.Join(g[i:min(i+3, len(g))], "\n"), strings.Join(w[i:min(i+3, len(w))], "\n"))
		}
	}
}

// TestUsageErrors: a mistake in the invocation exits 2 and names the
// valid choices.
func TestUsageErrors(t *testing.T) {
	var experiments []string
	for _, x := range harness.Experiments {
		experiments = append(experiments, x.Name)
	}
	for _, tc := range []struct {
		args string
		want []string // substrings of stderr
	}{
		{"", []string{"validate", "trace capture"}},
		{"speedup -all", []string{`unknown subcommand "speedup"`, "run", "validate", "worksweep", "trace capture", "trace inspect", "trace replay"}},
		// The calibration loop is the tuning, table3 and tlb rows of validate.
		{"tune -sim simos-mxs", []string{`unknown subcommand "tune"`}},
		{"snbench -sim simos-mipsy -tuned", []string{`unknown subcommand "snbench"`}},
		{"trace rewind", []string{`unknown subcommand "trace rewind"`}},
		{"validate -quick figure9", append([]string{`unknown experiment "figure9"`}, experiments...)},
		{"validate -quick", experiments},
		{"run -sim vax", core.ConfigNames},
		// One name per model: hw is not also "flash".
		{"run -sim flash", core.ConfigNames},
		// -mhz binds or is refused: hw and MXS run at 150 (cpu.clock_mhz
		// moves any model's clock).
		{"run -sim hw -mhz 225", []string{"mhz", "hw", "150", "cpu.clock_mhz"}},
		{"run -sim simos-mxs -mhz 300", []string{"mhz", "simos-mxs", "150", "cpu.clock_mhz"}},
		{"trace capture -sim simos-mxs -mhz 225 -app fft -o x.fltr", []string{"mhz", "simos-mxs"}},
		// The seed is the model's own unless -set seed=N moves it.
		{"run -seed 3", []string{"flag provided but not defined: -seed"}},
		{"trace replay -seed 3 f.fltr", []string{"flag provided but not defined: -seed"}},
		{"run -app nosuch", []string{"nosuch", "fft"}},
		{"worksweep -workloads nosuch", []string{"nosuch", "gups"}},
		// Capture and replay are `trace capture -o` and `trace replay`; no
		// other subcommand takes a container.
		{"run -trace-out x.fltr", []string{"flag provided but not defined: -trace-out"}},
		{"run -trace-in x.fltr", []string{"flag provided but not defined: -trace-in"}},
		{"validate -trace-out x.fltr figure1", []string{"flag provided but not defined: -trace-out"}},
		{"worksweep -trace-out x.fltr", []string{"flag provided but not defined: -trace-out"}},
		{"validate -figure 1", []string{"flag provided but not defined: -figure"}},
		// A container is written with -o; there is no trace store.
		{"trace capture -app fft -store traces", []string{"flag provided but not defined: -store"}},
		// inspect builds no machine, so it takes no machine override.
		{"trace inspect -set l2.transfer_ns=1 f.fltr", []string{"flag provided but not defined: -set"}},
		{"trace inspect -sample on f.fltr", []string{"flag provided but not defined: -sample"}},
		// Sampled simulation has no front end: no flag, no path, no row.
		{"run -sample on", []string{"flag provided but not defined: -sample"}},
		{"run -sample-cold", []string{"flag provided but not defined: -sample-cold"}},
		{"validate -sample on figure1", []string{"flag provided but not defined: -sample"}},
		{"validate -sample-cold figure1", []string{"flag provided but not defined: -sample-cold"}},
		{"worksweep -sample on", []string{"flag provided but not defined: -sample"}},
		{"worksweep -sample-cold", []string{"flag provided but not defined: -sample-cold"}},
		{"trace capture -sample on -app fft", []string{"flag provided but not defined: -sample"}},
		{"trace capture -sample-cold -app fft", []string{"flag provided but not defined: -sample-cold"}},
		{"trace replay -sample on f.fltr", []string{"flag provided but not defined: -sample"}},
		{"trace replay -sample-cold f.fltr", []string{"flag provided but not defined: -sample-cold"}},
		{"run -set sampling.enabled=true", []string{"sampling.enabled"}},
		{"validate -quick sampling", append([]string{`unknown experiment "sampling"`}, experiments...)},
		// One goroutine runs each simulation; there is no intra-run knob.
		{"run -shards 2", []string{"flag provided but not defined: -shards"}},
		// The memory system is a parameter like any other: -set mem.kind=numa.
		{"run -mem numa", []string{"flag provided but not defined: -mem"}},
		{"run -set no.such.knob=1", []string{"no.such.knob"}},
		// NaN passes every comparison against a bound; it is refused by name.
		{"run -set l2.transfer_ns=NaN", []string{"l2.transfer_ns", "NaN"}},
		{"run -app fft -p logn=NaN", []string{"workload fft: parameter logn", "NaN"}},
		// 2^63 bytes does not fit the bound; wrapped, it was a negative
		// bound that passed for unbounded, without -cache-dir.
		{"run -cache-max-bytes 8589934592GiB", []string{"-cache-max-bytes", "8589934592GiB"}},
		{"run -cache-max-bytes 1MiB", []string{"-cache-max-bytes", "-cache-dir"}},
		// -procs is held to the registry's bounds on procs, [1, 1024].
		{"run -app fft -full=false -procs 0", []string{"-procs", "[1, 1024]"}},
		{"run -app fft -full=false -procs -3", []string{"-procs", "[1, 1024]"}},
		{"run -app fft -full=false -procs 1025", []string{"-procs", "[1, 1024]"}},
		{"trace capture -app fft -full=false -procs 0 -o x.fltr", []string{"-procs", "[1, 1024]"}},
		{"worksweep -quick -workloads gups -sizes 4,0", []string{"-sizes", "[1, 1024]"}},
	} {
		stdout, stderr, status := flashsim(strings.Fields(tc.args)...)
		if status != 2 {
			t.Errorf("flashsim %s: exit %d, want 2\n%s", tc.args, status, stderr)
		}
		if stdout != "" {
			t.Errorf("flashsim %s: a usage error wrote to stdout: %q", tc.args, stdout)
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("flashsim %s: stderr does not mention %q:\n%s", tc.args, want, stderr)
			}
		}
	}
	if _, err := os.Stat("x.fltr"); err == nil {
		t.Error("a rejected -trace-out still wrote x.fltr")
	}
	if _, stderr, _ := flashsim(); strings.Count(stderr, "\n  ") != 6 {
		t.Errorf("the usage list does not name six subcommands:\n%s", stderr)
	}
}

// TestUnwritableArtifactFailsEverySubcommand: the one teardown reports
// a -metrics-out (or -memprofile) that cannot be written and exits 1,
// whichever subcommand ran — after printing the results it did get.
func TestUnwritableArtifactFailsEverySubcommand(t *testing.T) {
	dir := t.TempDir()
	fltr := filepath.Join(dir, "fft.fltr")
	if _, stderr, status := flashsim("trace", "capture", "-app", "fft", "-full=false", "-o", fltr); status != 0 {
		t.Fatalf("capture: exit %d\n%s", status, stderr)
	}
	bad := filepath.Join(dir, "no-such-dir", "out")
	for _, args := range []string{
		"run -app fft -full=false",
		"validate -quick table1 tlb",
		"worksweep -quick -workloads gups -sizes 2",
		"trace capture -app fft -full=false -o " + filepath.Join(dir, "again.fltr"),
		"trace inspect " + fltr,
		"trace replay " + fltr,
	} {
		for _, flag := range []string{"-metrics-out", "-memprofile"} {
			sub := strings.Fields(args)
			n := 1
			if sub[0] == "trace" {
				n = 2
			}
			argv := append(append(append([]string{}, sub[:n]...), flag, bad), sub[n:]...)
			stdout, stderr, status := flashsim(argv...)
			if status != 1 || !strings.Contains(stderr, flag) {
				t.Errorf("flashsim %s: exit %d, stderr %q; want exit 1 naming %s", strings.Join(argv, " "), status, stderr, flag)
			}
			if stdout == "" {
				t.Errorf("flashsim %s: the failed artifact write swallowed the results", strings.Join(argv, " "))
			}
		}
	}

	// And a writable one is written.
	good := filepath.Join(dir, "m.json")
	if _, stderr, status := flashsim("trace", "replay", "-metrics-out", good, fltr); status != 0 {
		t.Fatalf("replay -metrics-out: exit %d\n%s", status, stderr)
	}
	if data, err := os.ReadFile(good); err != nil || !bytes.Contains(data, []byte(`"Jobs": 1`)) {
		t.Errorf("metrics report: %v\n%.300s", err, data)
	}
}

// TestListingsPrintThroughRun: -list-workloads and -list-params print
// their registry to run's stdout and nothing else, and return 0 through
// the one teardown, so a -cpuprofile given with them is written.
func TestListingsPrintThroughRun(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		args string
		want string
	}{
		{"run -list-workloads", workload.Describe()},
		{"trace capture -list-workloads", workload.Describe()},
		{"run -list-params", param.Describe()},
	} {
		prof := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i))
		stdout, stderr, status := flashsim(append(strings.Fields(c.args), "-cpuprofile", prof)...)
		if status != 0 || stdout != c.want {
			t.Errorf("flashsim %s: exit %d, %d bytes of stdout, want 0 and the %d-byte listing\n%s", c.args, status, len(stdout), len(c.want), stderr)
		}
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("flashsim %s -cpuprofile: the profile was not written (%v)", c.args, err)
		}
	}
}

// TestFailedCaptureKeepsTheContainer: -o replaces a container only when
// the capture succeeds. A re-capture to the same path that fails
// (machine.Config.Validate refuses an L1 line longer than the L2's)
// exits 1 and leaves the first container byte for byte — inspect still
// verifies it — and no temp file beside it.
func TestFailedCaptureKeepsTheContainer(t *testing.T) {
	dir := t.TempDir()
	fltr := filepath.Join(dir, "fft.fltr")
	if _, stderr, status := flashsim("trace", "capture", "-app", "fft", "-full=false", "-o", fltr); status != 0 {
		t.Fatalf("capture: exit %d\n%s", status, stderr)
	}
	before, err := os.ReadFile(fltr)
	if err != nil {
		t.Fatal(err)
	}
	if _, stderr, status := flashsim("trace", "capture", "-app", "fft", "-full=false", "-set", "l1d.line_bytes=256", "-o", fltr); status != 1 {
		t.Fatalf("re-capture under an invalid config: exit %d, want 1\n%s", status, stderr)
	}
	if after, err := os.ReadFile(fltr); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the failed re-capture replaced the container (err %v, %d bytes, were %d)", err, len(after), len(before))
	}
	if stdout, stderr, status := flashsim("trace", "inspect", fltr); status != 0 || !strings.Contains(stdout, "verify:       OK") {
		t.Errorf("inspect after the failed re-capture: exit %d\n%s%s", status, stdout, stderr)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Errorf("the failed capture left temp files: %v", tmp)
	}
}

// TestUnwritableCacheEntryFailsTheRun: a -cache-dir entry that cannot be
// written (a directory squats at its path, which fails the rename even
// for root) leaves the results printed, but the one teardown names the
// directory with the error and exits 1, and no temp file is left.
func TestUnwritableCacheEntryFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-app", "fft", "-full=false", "-cache-dir", dir}
	if _, stderr, status := flashsim(args...); status != 0 {
		t.Fatalf("populating the cache: exit %d\n%s", status, stderr)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) == 0 {
		t.Fatal("the run left no cache entry")
	}
	for _, e := range entries {
		if err := os.Remove(e); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(e, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	stdout, stderr, status := flashsim(args...)
	if status != 1 || !strings.Contains(stderr, "cache "+dir+": ") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming cache %s", status, stderr, dir)
	}
	if stdout == "" {
		t.Error("the failed cache write swallowed the results")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Errorf("failed writes left temp files: %v", tmp)
	}
}

// TestWorkloadParamsKeyTheMemo: every workload parameter is part of the
// memo key, so a run that differs from a cached one in a single -p
// value is simulated, not served the cached result.
func TestWorkloadParamsKeyTheMemo(t *testing.T) {
	dir := t.TempDir()
	for _, iters := range []string{"2", "4"} {
		stdout, stderr, status := flashsim("run", "-app", "ocean", "-full=false", "-p", "iters="+iters, "-cache-dir", dir)
		if status != 0 {
			t.Fatalf("iters=%s: exit %d\n%s", iters, status, stderr)
		}
		if strings.Contains(stdout, "[memoized") || !strings.Contains(stdout, "iters="+iters) {
			t.Errorf("iters=%s after iters=2 on one -cache-dir was not simulated:\n%s", iters, stdout)
		}
	}
}

// TestDefectsRunThroughThePool: the defects row's twelve runs (six
// defects, baseline and injected) are counted in the report and served
// by a -cache-dir like every other row's, with the same text either way.
func TestDefectsRunThroughThePool(t *testing.T) {
	dir := t.TempDir()
	report, cache := filepath.Join(dir, "m.json"), filepath.Join(dir, "cache")
	var first string
	for _, wantRan := range []string{"", `"Ran": 0,`} {
		stdout, stderr, status := flashsim("validate", "-quick", "-metrics-out", report, "-cache-dir", cache, "defects")
		if status != 0 {
			t.Fatalf("exit %d\n%s", status, stderr)
		}
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"Jobs": 12,`, `"Runs": 12,`, wantRan} {
			if !bytes.Contains(data, []byte(want)) {
				t.Errorf("report lacks %s:\n%.400s", want, data)
			}
		}
		if bytes.Contains(data, []byte(`"Instructions": 0,`)) {
			t.Errorf("report counts no instructions:\n%.400s", data)
		}
		if !strings.Contains(stdout, "[runner: 12 jobs") {
			t.Errorf("no runner line:\n%s", stdout)
		}
		if first == "" {
			first = stable(stdout)
		} else if stable(stdout) != first {
			t.Errorf("cached defects row differs from the run one:\n%s\n---\n%s", stable(stdout), first)
		}
	}
}

// TestWorksweepJSONReport: the evidence file carries the matrix that
// was asked for and one trend row per workload, and no sampling half.
func TestWorksweepJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	stdout, stderr, status := flashsim("worksweep", "-quick", "-workloads", "gups", "-sizes", "2", "-date", "2000-11-12", "-json", path)
	if status != 0 {
		t.Fatalf("exit %d\n%s", status, stderr)
	}
	if !strings.Contains(stdout, "wrote "+path) {
		t.Errorf("stdout does not report the file:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"date": "2000-11-12"`, `"scale": "quick"`, `"gups"`, `"Workload": "GUPS"`, `"trend"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("report lacks %s:\n%s", want, data)
		}
	}
	for _, gone := range []string{`"sampling"`, `"schedule"`} {
		if bytes.Contains(data, []byte(gone)) {
			t.Errorf("report still carries %s:\n%s", gone, data)
		}
	}
}

// TestFrontEndsAgree: for every model the study names, the machine a
// flashd spec resolves is the study's own constructor's, field for
// field and seed included, and `flashsim run` with the same -sim and
// -mhz files its result under that machine's key: a run the study made
// (validate figure1 runs SimOS-Mipsy 150 on the untuned FFT) is a hit
// for the CLI, and the other way round.
func TestFrontEndsAgree(t *testing.T) {
	prog := harness.ScaleQuick.FFTWorkload(false).Make(1)
	for _, tc := range []struct {
		base  string
		mhz   int
		study machine.Config
	}{
		{"hw", 150, hw.Config(1, true)},
		{"simos-mipsy", 150, core.SimOSMipsy(1, 150, true)},
		{"simos-mipsy", 225, core.SimOSMipsy(1, 225, true)},
		{"simos-mipsy", 300, core.SimOSMipsy(1, 300, true)},
		{"simos-mxs", 150, core.SimOSMXS(1, true)},
		{"solo-mipsy", 150, core.SoloMipsy(1, 150, true)},
	} {
		name := fmt.Sprintf("%s at %d", tc.base, tc.mhz)
		spec, err := core.ConfigSpec{Base: tc.base, MHz: tc.mhz, Procs: 1}.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(spec, tc.study) {
			t.Errorf("%s: the spec resolves\n%+v\nthe study builds\n%+v", name, spec, tc.study)
		}
		dir := t.TempDir()
		stdout, stderr, status := flashsim("run", "-sim", tc.base, "-mhz", strconv.Itoa(tc.mhz),
			"-app", "fft", "-p", "tlb_blocked=false", "-full=false", "-cache-dir", dir)
		if status != 0 {
			t.Fatalf("%s: exit %d\n%s", name, status, stderr)
		}
		if want := " on " + tc.study.Name + ", 1 processor(s)"; !strings.Contains(stdout, want) {
			t.Errorf("%s: the run does not say %q:\n%s", name, want, stdout)
		}
		key := runner.Fingerprint(tc.study, prog)
		if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != 1 || entries[0] != filepath.Join(dir, key+".json") {
			t.Errorf("%s: the run filed %v, want the study's key %s", name, entries, key)
		}
	}
}
