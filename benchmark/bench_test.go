package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"flashsim/internal/machine"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{6, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := percentile(s, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(s, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 || in[0] != 9 {
		t.Errorf("median = %v (input now %v), want 5 with the input untouched", got, in)
	}
}

// The expected values are statistics.quantiles(range(1, 11), n=4) =
// [2.75, 5.5, 8.25] and quantiles([10, 11, 13, 20], n=4) = [10.25, 12, 18.25].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := quartileSpread(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got, want := quartileSpread([]float64{20, 10, 13, 11}), (18.25-10.25)/12; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: 10..50 counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // clipped at the parent's end
		{Name: "leaf", Start: 22, End: 25, Parent: 2}, // grandchild: only b's self time
		{Name: "open", Start: 5, End: -1, Parent: 0},  // never closed
	}
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	for _, s := range summarize(spans) {
		if s.Name == "parent" && (s.Count != 1 || s.TotalNS != 100 || s.SelfNS != 50) {
			t.Errorf("summary of parent = %+v", s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.add("y", time.Now(), time.Now(), -1, 0)
	if d := tr.timed("z", -1, func() {}); d < 0 {
		t.Errorf("timed returned %v", d)
	}
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded: id=%d spans=%v", id, tr.snapshot())
	}
}

func TestSpansRoundTripThroughTheFile(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", -1, 7)
	tr.end(tr.begin("machine.run", op, 7))
	tr.end(op)
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := writeSpans(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 || doc.Spans[1].Op != 7 || doc.Spans[0].End < doc.Spans[1].End {
		t.Errorf("spans = %+v", doc.Spans)
	}
}

func planText(t *testing.T, w *workloadDef, seed uint64) string {
	t.Helper()
	inst, err := w.New(seed, w.opsFor(30))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	inst.describe(&b)
	return b.String()
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if planText(t, w, 3) != planText(t, w, 3) {
			t.Errorf("%s: the same seed gave two plans", w.Name)
		}
		if planText(t, w, 3) == planText(t, w, 4) {
			t.Errorf("%s: seeds 3 and 4 gave the same plan", w.Name)
		}
	}
}

// Any three consecutive ops of replay-sweep cover every level of every
// (trace, parameter) pair and all six sampled replays exactly once, so
// work per run does not depend on the seed.
func TestReplayPlanDealsTheFullGrid(t *testing.T) {
	inst, err := newReplay(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	plan := inst.(*replaySweep).plan
	for at := 0; at+3 <= len(plan); at += 3 {
		seen := make(map[[3]int]int)
		sampled := make(map[[2]int]int)
		for _, op := range plan[at : at+3] {
			for tr := range replayApps {
				for p := range sweepParams {
					seen[[3]int{tr, p, op.level[tr][p]}]++
				}
			}
			sampled[[2]int{0, op.warm}]++
			sampled[[2]int{1, op.sparse}]++
		}
		if len(seen) != len(replayApps)*len(sweepParams)*3 || len(sampled) != 2*len(replayApps) {
			t.Fatalf("ops %d..%d cover %d grid points and %d sampled replays", at, at+2, len(seen), len(sampled))
		}
	}
}

func TestOpsScaleWithSecondsNotWithTheClock(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if got := w.opsFor(30); got != w.Ops30 {
			t.Errorf("%s: opsFor(30) = %d, want the frozen %d", w.Name, got, w.Ops30)
		}
		for _, s := range []int{1, 7, 60} {
			if n := w.opsFor(s); n < w.SegOps || n%w.SegOps != 0 || n%w.Clients != 0 {
				t.Errorf("%s: opsFor(%d) = %d is not a positive multiple of segment %d and clients %d", w.Name, s, n, w.SegOps, w.Clients)
			}
		}
	}
}

func TestDigestIsStableAndSensitive(t *testing.T) {
	r := machine.Result{Exec: 10, Total: 20, Instructions: 30}
	r.CaseCounts[1] = 4
	if resultDigest(r) != resultDigest(r) {
		t.Fatal("digest of one result changed between calls")
	}
	for name, mutate := range map[string]func(*machine.Result){
		"Exec":         func(r *machine.Result) { r.Exec++ },
		"Total":        func(r *machine.Result) { r.Total++ },
		"Instructions": func(r *machine.Result) { r.Instructions++ },
		"CaseCounts":   func(r *machine.Result) { r.CaseCounts[2]++ },
	} {
		m := r
		mutate(&m)
		if resultDigest(m) == resultDigest(r) {
			t.Errorf("digest ignores %s", name)
		}
	}
	// A label is not part of the simulated outcome.
	m := r
	m.Config = "renamed"
	if resultDigest(m) != resultDigest(r) {
		t.Error("digest depends on the config label")
	}

	var a, b digests
	other := r
	other.Exec++
	for _, k := range []string{"x", "y"} {
		if err := a.check(k, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"y", "x"} {
		if err := b.check(k, r); err != nil {
			t.Fatal(err)
		}
	}
	if a.sum() != b.sum() {
		t.Error("the digest sum depends on observation order")
	}
	if err := a.check("x", r); err != nil {
		t.Errorf("a repeat of the same result failed: %v", err)
	}
	if err := a.check("x", other); err == nil {
		t.Error("a repeat with a different result passed the output check")
	}
}

// fakeInstance fails the ops listed in bad.
type fakeInstance struct{ bad map[int]bool }

func (f *fakeInstance) describe(io.Writer) {}
func (f *fakeInstance) setup() error       { return nil }
func (f *fakeInstance) op(i int, _ *tracer) (uint64, error) {
	if f.bad[i] {
		return 0, errors.New("boom")
	}
	return 100, nil
}
func (f *fakeInstance) errPct() float64   { return 1 }
func (f *fakeInstance) simDigest() string { return "" }
func (f *fakeInstance) memo() (int64, int64) {
	return 0, 0
}
func (f *fakeInstance) probe() probeInput { return probeInput{} }
func (f *fakeInstance) close()            {}

func TestAFailedOpIsCountedAndKeptOutOfTheTimings(t *testing.T) {
	for _, clients := range []int{1, 2} {
		ph := runPhase(&fakeInstance{bad: map[int]bool{1: true, 4: true}}, 6, clients, 2*clients, time.Minute, nil, func(int) *tracer { return nil })
		if ph.attempted != 6 || ph.failed != 2 || len(ph.opMS) != 4 || ph.instrs != 400 || ph.firstErr == nil {
			t.Errorf("clients=%d: %+v", clients, ph)
		}
	}
	// No segment starts that would end past the limit, except the first.
	ph := runPhase(&fakeInstance{}, 6, 1, 2, 0, nil, func(int) *tracer { return nil })
	if ph.attempted != 2 {
		t.Errorf("ran %d ops with no time left, want the first segment's 2", ph.attempted)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the driver and this
// program must agree on.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(gated))
	}
	sample := endToEnd([]float64{1}, phase{opMS: []float64{1}, instrs: 1, wall: 1}, 1, 1)
	for i, m := range doc.EndToEnd {
		if m.Name != gated[i] || m.Bound != bounds[m.Name] || m.Unit != sample[m.Name].Unit || m.Better != "lower" {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v; the program has %s, bound %v, unit %s", i, m, gated[i], bounds[gated[i]], sample[gated[i]].Unit)
		}
	}
	if doc.RunSeconds != 30 {
		t.Errorf("run_seconds = %d; the frozen op counts are for 30", doc.RunSeconds)
	}
}

func checkGated(t *testing.T, res result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result = %+v", res)
	}
	for _, name := range gated {
		if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("%s = %+v, want a positive value", name, m)
		}
	}
	if len(res.Metrics) != len(gated) {
		t.Errorf("a gated run reported %d metrics, want %d", len(res.Metrics), len(gated))
	}
}

// The -short run of every workload passes its own output checks. The
// study op alone takes five seconds, so `go test -short` skips these.
func TestShortRunOfEveryWorkloadPassesItsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runGated(w, options{workload: w.Name, seed: 5, seconds: 30, short: true})
			if err != nil {
				t.Fatal(err)
			}
			checkGated(t, res)
		})
	}
}

// Two runs of one seed agree on every count that must be bit-equal.
func TestSameSeedSameDigestAndError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs replay-sweep twice")
	}
	w, err := lookupWorkload("replay-sweep")
	if err != nil {
		t.Fatal(err)
	}
	var digest [2]string
	var errPct [2]float64
	for i := range digest {
		inst, err := w.New(9, w.ShortOps)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.setup(); err != nil {
			t.Fatal(err)
		}
		ph := runPhase(inst, w.ShortOps, 1, w.SegOps, time.Minute, nil, func(int) *tracer { return nil })
		if ph.failed != 0 {
			t.Fatal(ph.firstErr)
		}
		digest[i], errPct[i] = inst.simDigest(), inst.errPct()
	}
	if digest[0] != digest[1] || errPct[0] != errPct[1] || digest[0] == "" {
		t.Errorf("digest %q vs %q, err_pct %v vs %v", digest[0], digest[1], errPct[0], errPct[1])
	}
}

// The traced run emits exactly the per-layer metrics BENCHMARK.json
// names, and writes the span file.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe")
	}
	w, err := lookupWorkload("served-mix")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	res, err := runTraced(w, options{workload: w.Name, seed: 1, seconds: 30, trace: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed %d of %d ops", res.Failed, res.Attempted)
	}
	var want, got []string
	for _, m := range readBenchmarkJSON(t).PerLayer {
		want = append(want, m.Name)
		if res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
		}
	}
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("traced run emitted %d metrics, BENCHMARK.json names %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d: emitted %s, BENCHMARK.json names %s", i, got[i], want[i])
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// A host running at half speed doubles the chain time and the clock
// readings alike: the reported timings do not move, nor do the counts.
func TestTimingsAreDividedByTheHostSlowdown(t *testing.T) {
	quiet := phase{opMS: []float64{10, 20, 30}, instrs: 1000, wall: 60 * time.Millisecond, mallocs: 300, bytes: 3 << 10}
	slow := quiet
	slow.opMS = []float64{20, 40, 60}
	slow.wall = 2 * quiet.wall
	a := endToEnd([]float64{1, 1.5, 1.1}, quiet, slowdown([]float64{nominalChainMS}), 7)
	b := endToEnd([]float64{2, 3, 2.2}, slow, slowdown([]float64{1.9 * nominalChainMS, 2 * nominalChainMS, 5 * nominalChainMS}), 7)
	for _, name := range gated {
		if a[name] != b[name] {
			t.Errorf("%s: %v on the quiet host, %v on the slow one", name, a[name], b[name])
		}
	}
	if a["op_ms_p50"].Value != 20 || a["host_ns_per_instr"].Value != 60000 || a["setup_s"].Value != 1.1 || a["allocs_per_op"].Value != 100 {
		t.Errorf("quiet-host metrics = %v", a)
	}
	var none *hostSpeed
	if none.measure() != nominalChainMS {
		t.Error("a nil hostSpeed must report the nominal chain time")
	}
}

// The calibration chain is one cycle through every entry, so a walk
// never settles into a short, cache-resident loop.
func TestCalibrationChainIsOneCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 4M dependent loads")
	}
	h := newHostSpeed()
	p, steps := uint32(0), 0
	for {
		p = h.chain[p]
		steps++
		if p == 0 || steps > chainLen {
			break
		}
	}
	if steps != chainLen {
		t.Errorf("the chain returns to its start after %d steps, want %d", steps, chainLen)
	}
	if ms := h.measure(); !(ms > 0) {
		t.Errorf("measure() = %v", ms)
	}
}
