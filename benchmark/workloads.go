package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// workloadDef is one benchmark workload. Ops30 is the frozen op count
// of a 30 s timed phase at GOMAXPROCS=1 on the 2-vCPU dev box; the
// count scales with -seconds and never with the clock, so allocation
// and served-job counts repeat between runs (see README.md).
type workloadDef struct {
	Name string
	Why  string
	// Ops30 is per workload, summed over its clients.
	Ops30 int
	// SegOps is how many ops run between two host-speed calibrations:
	// about a second's worth, a multiple of Clients and of the span over
	// which a seeded plan deals its fixed deck (three ops of
	// replay-sweep). Scaled op counts are multiples of it.
	SegOps int
	// ShortOps and TracedOps are the op counts of -short and of the
	// traced run (which alternates untraced and traced ops).
	ShortOps  int
	TracedOps int
	// Clients is the number of closed-loop clients issuing ops.
	Clients int
	New     func(seed uint64, ops int) (instance, error)
}

// instance is one seeded execution of a workload.
type instance interface {
	// describe prints the generated inputs (-plan).
	describe(w io.Writer)
	// setup does everything that precedes the first timed op: program
	// and registry construction, trace capture, server start and store
	// priming, reference runs, and one untimed reduced warm-up op. It
	// may be called again after close.
	setup() error
	// op runs closed-loop op i and returns the simulated instructions
	// in the results it delivered. Any error, non-2xx response or
	// output-check mismatch is returned as an error: a failed op.
	op(i int, tr *tracer) (uint64, error)
	// errPct is mean |sim - reference| / reference on execution time,
	// in percent, over the workload's (simulator, program) pairs.
	errPct() float64
	// simDigest hashes every simulated result the ops observed.
	simDigest() string
	// memo reports memo-store hits and jobs of the workload's pool.
	memo() (hits, jobs int64)
	// probe names the streams the layer probes are fed.
	probe() probeInput
	close()
}

var workloads = []workloadDef{
	{
		Name:  "study-quick",
		Why:   "The paper's headline use: Figure 1 + Figure 3 at quick scale on a fresh session (6 ops/30 s); emitter, cpu, cache and tlb bound, memory system idle.",
		Ops30: 6, SegOps: 1, ShortOps: 1, TracedOps: 2, Clients: 1,
		New: newStudy,
	},
	{
		Name:  "mp-contend",
		Why:   "gups, oltp, barnes, webserve at 32 nodes under SimOS-Mipsy and the hw reference (24 passes/30 s); memsys, directory, network and the window barrier bound.",
		Ops30: 24, SegOps: 1, ShortOps: 1, TracedOps: 4, Clients: 1,
		New: newContend,
	},
	{
		Name:  "replay-sweep",
		Why:   "decode + prepare + 12 replay points + 2 sampled replays of lu, fft, ocean at 4p (66 ops/30 s); same engine without emitter, collapsed-run and fast-forward paths.",
		Ops30: 66, SegOps: 3, ShortOps: 3, TracedOps: 12, Clients: 1,
		New: newReplay,
	},
	{
		Name:  "served-mix",
		Why:   "in-process flashd, 2 keep-alive clients, session = 1 cold fft run + 100 memo hits (520 sessions/30 s); fingerprint, store, JSON and HTTP bound, one third simulation.",
		Ops30: 520, SegOps: 20, ShortOps: 4, TracedOps: 80, Clients: 2,
		New: newServed,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// opsFor scales the frozen op count to the requested measuring time.
func (w *workloadDef) opsFor(seconds int) int {
	n := int(math.Round(float64(w.Ops30) * float64(seconds) / 30))
	n -= n % w.SegOps
	return max(n, w.SegOps)
}

// --- output checks ---------------------------------------------------

// resultDigest condenses the simulated outcome of one run: parallel-
// section and total ticks, instruction count, protocol case counts.
func resultDigest(r machine.Result) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d %d %d %v", r.Exec, r.Total, r.Instructions, r.CaseCounts)))
	return hex.EncodeToString(h[:8])
}

// digests remembers the first digest seen under each key and fails
// every later observation that differs: the same simulated job must
// give the same result however often and through whatever path (direct,
// replayed, served cold, served warm) it is obtained.
type digests struct {
	mu sync.Mutex
	m  map[string]string
}

func (d *digests) check(key string, r machine.Result) error {
	got := resultDigest(r)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = make(map[string]string)
	}
	want, seen := d.m[key]
	if !seen {
		d.m[key] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("output check: %s digest %s, first seen %s", key, got, want)
	}
	return nil
}

func (d *digests) sum() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, d.m[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// execErr is |sim - ref| / ref on two execution times.
func execErr(simulated, ref sim.Ticks) float64 {
	return stats.RelError(float64(simulated), float64(ref))
}

// mustProgram resolves a registry workload at its quick defaults with
// overrides. Names and overrides are constants of this file, so a
// registry miss is a bug here, not an input error.
func mustProgram(name string, over map[string]any, procs int) emitter.Program {
	def, err := workload.Lookup(name)
	if err != nil {
		panic(err)
	}
	vals, err := def.Resolve(over, true)
	if err != nil {
		panic(err)
	}
	return def.Build(vals, procs)
}

// reference is the hardware gold standard without run-to-run jitter,
// so err_pct is a pure function of the commit.
func reference(procs int) machine.Config {
	cfg := hw.Config(procs, true)
	cfg.JitterPct = 0
	return cfg
}

// --- study-quick -----------------------------------------------------

// study runs the uniprocessor SPLASH-2 comparison before tuning
// (Figure 1) and after closing the loop (Figure 3) on a fresh session
// with a fresh memo store, the way `validate -quick` is used. The seed
// sets the simulators' branch-outcome PRNG seed through the session's
// override hook; the hardware reference is outside the hook.
type study struct {
	simSeed    uint64
	d          digests
	err        float64
	hits, jobs int64
}

func newStudy(seed uint64, ops int) (instance, error) {
	return &study{simSeed: 1 + seed%1_000_000}, nil
}

func (s *study) describe(w io.Writer) {
	fmt.Fprintf(w, "every op: fresh quick session, simulator seed=%d, Figure1() then Figure3()\n", s.simSeed)
}

func (s *study) session(be runner.Backend) *harness.Session {
	sess := harness.NewSessionWithPool(harness.ScaleQuick, runner.New(1, be))
	sess.Override = func(cfg machine.Config) (machine.Config, error) {
		cfg.Seed = s.simSeed
		return cfg, nil
	}
	return sess
}

func (s *study) setup() error {
	// Warm-up: the FFT and LU rows of Figure 1, about a sixth of an op.
	store, err := runner.NewStore("")
	if err != nil {
		return err
	}
	sess := s.session(store)
	cfgs, err := sess.UntunedConfigs(1)
	if err != nil {
		return err
	}
	apps := sess.Scale.InitialApps()
	_, err = core.NewStudy(sess.Ref, cfgs...).Compare([]core.Workload{apps[0], apps[2]}, 1)
	return err
}

func (s *study) op(i int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	store, err := runner.NewStore("")
	if err != nil {
		return 0, err
	}
	var be runner.Backend = store
	var sb *spanBackend
	if tr != nil {
		sb = &spanBackend{inner: store, tr: tr, op: i, parent: opSpan}
		be = sb
	}
	sess := s.session(be)
	var instrs uint64
	figure := func(name string, f func() (core.CompareResult, string, error)) (core.CompareResult, error) {
		id := tr.begin("harness."+name, opSpan, i)
		if sb != nil {
			sb.parent = id
		}
		res, _, err := f()
		tr.end(id)
		if err != nil {
			return res, err
		}
		for _, w := range res.Order {
			for _, e := range res.Rows[w] {
				if err := s.d.check(name+"/"+w+"/"+e.Config, e.Sim); err != nil {
					return res, err
				}
				instrs += e.Sim.Instructions
			}
			for j, r := range res.HW[w].Runs {
				if err := s.d.check(fmt.Sprintf("%s/%s/hw#%d", name, w, j), r); err != nil {
					return res, err
				}
				instrs += r.Instructions
			}
		}
		return res, nil
	}
	if _, err := figure("figure1", sess.Figure1); err != nil {
		return instrs, err
	}
	r3, err := figure("figure3", sess.Figure3)
	if err != nil {
		return instrs, err
	}
	s.err = 100 * meanAbsRelative(r3)
	st := sess.Pool().Stats().Counters()
	s.hits += st.CacheHits
	s.jobs += st.Jobs
	return instrs, nil
}

// meanAbsRelative is mean |relative - 1| over a figure's bars, in
// workload then configuration order so the sum is bit-stable.
func meanAbsRelative(r core.CompareResult) float64 {
	sum, n := 0.0, 0
	for _, w := range r.Order {
		for _, e := range r.Rows[w] {
			sum += stats.RelError(e.Relative, 1)
			n++
		}
	}
	return sum / float64(n)
}

func (s *study) errPct() float64          { return s.err }
func (s *study) simDigest() string        { return s.d.sum() }
func (s *study) memo() (hits, jobs int64) { return s.hits, s.jobs }
func (s *study) close()                   {}

func (s *study) probe() probeInput {
	apps := harness.ScaleQuick.InitialApps()
	return probeInput{
		cfg:   core.SimOSMipsy(1, 150, true),
		progs: []emitter.Program{apps[0].Make(1), apps[2].Make(1)},
		job:   servedRequest(servedColdLogN, 1),
	}
}

// --- mp-contend ------------------------------------------------------

// contend runs the four server-class generators at 32 nodes under the
// study's Mipsy simulator and the hardware reference. The seed shuffles
// the order of the eight runs inside every pass; the set never changes,
// so work per op is the same for every seed.
type contend struct {
	order [][]int
	runs  []contendRun
	d     digests
	exec  map[string]sim.Ticks // label -> Exec of the first observation
}

type contendRun struct {
	label string
	prog  string
	ref   bool
	cfg   machine.Config
	p     emitter.Program
}

const contendProcs = 32

var contendApps = []struct {
	name string
	over map[string]any
}{
	{"gups", map[string]any{"updates": 1024}},
	{"oltp", map[string]any{"txns": 64}},
	{"barnes", nil},
	{"webserve", nil},
}

func newContend(seed uint64, ops int) (instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	c := &contend{exec: make(map[string]sim.Ticks)}
	for i := 0; i < ops; i++ {
		c.order = append(c.order, rng.Perm(2*len(contendApps)))
	}
	return c, nil
}

func (c *contend) describe(w io.Writer) {
	fmt.Fprintf(w, "runs: index 2k = app k under SimOS-Mipsy, 2k+1 = app k under the hw reference; apps=%v at %d nodes\n", contendAppNames(), contendProcs)
	for i, o := range c.order {
		fmt.Fprintf(w, "op %d order %v\n", i, o)
	}
}

func contendAppNames() []string {
	var n []string
	for _, a := range contendApps {
		n = append(n, a.name)
	}
	return n
}

func (c *contend) setup() error {
	c.runs = c.runs[:0]
	for _, a := range contendApps {
		p := mustProgram(a.name, a.over, contendProcs)
		c.runs = append(c.runs,
			contendRun{label: a.name + "/sim", prog: a.name, cfg: core.SimOSMipsy(contendProcs, 150, true), p: p},
			contendRun{label: a.name + "/ref", prog: a.name, ref: true, cfg: reference(contendProcs), p: p})
	}
	// Warm-up: the simulator half of a pass.
	for i := 0; i < len(c.runs); i += 2 {
		if _, err := c.run(i, nil, -1, -1); err != nil {
			return err
		}
	}
	return nil
}

func (c *contend) run(idx int, tr *tracer, parent, op int) (uint64, error) {
	r := c.runs[idx]
	id := tr.begin("machine.run", parent, op)
	res, err := machine.Run(r.cfg, r.p)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", r.label, err)
	}
	if err := c.d.check(r.label, res); err != nil {
		return 0, err
	}
	c.exec[r.label] = res.Exec
	return res.Instructions, nil
}

func (c *contend) op(i int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	var instrs uint64
	for _, idx := range c.order[i] {
		n, err := c.run(idx, tr, opSpan, i)
		if err != nil {
			return instrs, err
		}
		instrs += n
	}
	return instrs, nil
}

func (c *contend) errPct() float64 {
	sum, n := 0.0, 0
	for _, a := range contendApps {
		simulated, ok1 := c.exec[a.name+"/sim"]
		ref, ok2 := c.exec[a.name+"/ref"]
		if ok1 && ok2 {
			sum += execErr(simulated, ref)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

func (c *contend) simDigest() string        { return c.d.sum() }
func (c *contend) memo() (hits, jobs int64) { return 0, 0 }
func (c *contend) close()                   {}

func (c *contend) probe() probeInput {
	return probeInput{
		cfg: core.SimOSMipsy(contendProcs, 150, true),
		progs: []emitter.Program{
			mustProgram(contendApps[0].name, contendApps[0].over, contendProcs),
			mustProgram(contendApps[1].name, contendApps[1].over, contendProcs),
		},
		job: serve.RunRequest{
			ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: contendProcs},
			Workload:   serve.Workload("gups", map[string]any{"log_table": 14, "updates": 1024}),
		},
	}
}

// --- replay-sweep ----------------------------------------------------

// replaySweep captures lu, fft and ocean at 4p once and then replays
// them across a parameter sweep, the trace-driven design-space use.
// Every op decodes and prepares all three traces, replays each at one
// level of each swept parameter (12 points) and runs two sampled
// replays. The seed permutes trace order, the order in which each
// (trace, parameter) pair walks its levels, and which traces get the
// sampled runs; any three consecutive ops cover the full grid, so work
// per three ops is the same for every seed.
type replaySweep struct {
	plan []replayOp

	base    machine.Config
	names   []string
	data    [][]byte
	capture []machine.Result
	refExec []sim.Ticks
	d       digests
	sampled map[string]float64 // trace/schedule -> error vs unsampled
}

type replayOp struct {
	traces []int    // order in which the traces are prepared and swept
	level  [][4]int // per trace: level index of each swept parameter
	warm   int      // trace given the default (warm) sampled replay
	sparse int      // trace given the sparse cold sampled replay
}

const replayProcs = 4

var replayApps = []string{"lu", "fft", "ocean"}

// sweepParams are the swept registry paths and their levels. The
// levels are fixed so that work is seed-independent; newReplay checks
// each against the registry's own bounds.
var sweepParams = [4]struct {
	path   string
	levels [3]string
}{
	{"l2.size_bytes", [3]string{"65536", "131072", "262144"}},
	{"flash.bus_reply_ns", [3]string{"25", "35", "50"}},
	{"os.tlb.entries", [3]string{"32", "64", "128"}},
	{"cpu.clock_mhz", [3]string{"150", "225", "300"}},
}

func sparseCold() machine.SamplingConfig {
	s := machine.DefaultSampling()
	s.Period = 100_000
	s.ColdState = true
	return s
}

func newReplay(seed uint64, ops int) (instance, error) {
	for _, sp := range sweepParams {
		p, ok := param.Lookup(sp.path)
		if !ok {
			return nil, fmt.Errorf("replay-sweep: %s is not a registered parameter", sp.path)
		}
		for _, lv := range sp.levels {
			v, err := strconv.ParseFloat(lv, 64)
			if err != nil || (p.Max > p.Min && (v < p.Min || v > p.Max)) {
				return nil, fmt.Errorf("replay-sweep: level %s of %s is outside the registry bounds [%g, %g]", lv, sp.path, p.Min, p.Max)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	nt := len(replayApps)
	// walk[t][p] is the seeded order in which pair (t, p) visits levels.
	walk := make([][4][]int, nt)
	for t := range walk {
		for p := range walk[t] {
			walk[t][p] = rng.Perm(3)
		}
	}
	// sampled is the seeded rotation in which traces take the two
	// sampled replays: op i samples trace i warm and trace i+1 cold.
	sampled := rng.Perm(nt)
	r := &replaySweep{base: core.SimOSMipsy(replayProcs, 150, true), sampled: make(map[string]float64)}
	for i := 0; i < ops; i++ {
		op := replayOp{traces: rng.Perm(nt), level: make([][4]int, nt)}
		for t := 0; t < nt; t++ {
			for p := 0; p < 4; p++ {
				op.level[t][p] = walk[t][p][i%3]
			}
		}
		op.warm = sampled[i%nt]
		op.sparse = sampled[(i+1)%nt]
		r.plan = append(r.plan, op)
	}
	return r, nil
}

func (r *replaySweep) describe(w io.Writer) {
	fmt.Fprintf(w, "traces=%v at %dp; swept:", replayApps, replayProcs)
	for _, sp := range sweepParams {
		fmt.Fprintf(w, " %s%v", sp.path, sp.levels)
	}
	fmt.Fprintln(w)
	for i, op := range r.plan {
		fmt.Fprintf(w, "op %d trace order %v levels %v sampled warm=%s sparse-cold=%s\n",
			i, op.traces, op.level, replayApps[op.warm], replayApps[op.sparse])
	}
}

func (r *replaySweep) setup() error {
	r.names, r.data, r.capture, r.refExec = nil, nil, nil, nil
	for _, name := range replayApps {
		p := mustProgram(name, nil, replayProcs)
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, trace.Meta{Workload: p.FullName(), Threads: replayProcs})
		if err != nil {
			return err
		}
		res, err := machine.RunCapture(r.base, p, tw)
		if err != nil {
			return fmt.Errorf("capture %s: %w", name, err)
		}
		ref, err := machine.Run(reference(replayProcs), p)
		if err != nil {
			return fmt.Errorf("reference %s: %w", name, err)
		}
		r.names = append(r.names, name)
		r.data = append(r.data, buf.Bytes())
		r.capture = append(r.capture, res)
		r.refExec = append(r.refExec, ref.Exec)
		// Warm-up and check in one: a replay on the configuration that
		// captured the trace must be bit-identical to the capture.
		if err := r.d.check(name+"/capture", res); err != nil {
			return err
		}
		img, err := r.prepare(len(r.names)-1, nil, -1, -1)
		if err != nil {
			return err
		}
		rep, err := machine.RunReplay(r.base, img)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		if err := r.d.check(name+"/capture", rep); err != nil {
			return fmt.Errorf("replay at the capture config differs from capture: %w", err)
		}
	}
	return nil
}

func (r *replaySweep) prepare(t int, tr *tracer, parent, op int) (*machine.ReplayImage, error) {
	id := tr.begin("trace.decode", parent, op)
	dec, err := trace.Decode(r.data[t])
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", r.names[t], err)
	}
	id = tr.begin("machine.prepare_replay", parent, op)
	img, err := machine.PrepareReplay(dec)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", r.names[t], err)
	}
	return img, nil
}

func (r *replaySweep) op(i int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	plan := r.plan[i]
	imgs := make([]*machine.ReplayImage, len(r.names))
	for _, t := range plan.traces {
		img, err := r.prepare(t, tr, opSpan, i)
		if err != nil {
			return 0, err
		}
		imgs[t] = img
	}
	var instrs uint64
	replay := func(span, key string, cfg machine.Config, t int) (machine.Result, error) {
		id := tr.begin(span, opSpan, i)
		res, err := machine.RunReplay(cfg, imgs[t])
		tr.end(id)
		if err != nil {
			return res, fmt.Errorf("%s: %w", key, err)
		}
		instrs += res.Instructions
		return res, r.d.check(key, res)
	}
	for _, t := range plan.traces {
		for p, sp := range sweepParams {
			set := param.Setting{Path: sp.path, Value: sp.levels[plan.level[t][p]]}
			cfg, err := param.ApplySettings(r.base, []param.Setting{set})
			if err != nil {
				return instrs, err
			}
			key := fmt.Sprintf("%s/%s=%s", r.names[t], set.Path, set.Value)
			if _, err := replay("machine.run_replay", key, cfg, t); err != nil {
				return instrs, err
			}
		}
	}
	for _, s := range []struct {
		name  string
		trace int
		sched machine.SamplingConfig
	}{{"warm", plan.warm, machine.DefaultSampling()}, {"sparse-cold", plan.sparse, sparseCold()}} {
		cfg := r.base
		cfg.Sampling = s.sched
		key := r.names[s.trace] + "/sampled-" + s.name
		res, err := replay("machine.run_replay.sampled", key, cfg, s.trace)
		if err != nil {
			return instrs, err
		}
		r.sampled[key] = execErr(res.Exec, r.capture[s.trace].Exec)
	}
	return instrs, nil
}

// errPct averages, per trace, the replay-vs-reference error at the
// capture configuration and the two sampled-vs-unsampled errors, over
// the pairs observed so far (all nine after three ops).
func (r *replaySweep) errPct() float64 {
	sum, n := 0.0, 0
	for t, name := range r.names {
		sum += execErr(r.capture[t].Exec, r.refExec[t])
		n++
		for _, s := range []string{"warm", "sparse-cold"} {
			if e, ok := r.sampled[name+"/sampled-"+s]; ok {
				sum += e
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

func (r *replaySweep) simDigest() string        { return r.d.sum() }
func (r *replaySweep) memo() (hits, jobs int64) { return 0, 0 }
func (r *replaySweep) close()                   {}

func (r *replaySweep) probe() probeInput {
	return probeInput{
		cfg: core.SimOSMipsy(replayProcs, 150, true),
		progs: []emitter.Program{
			mustProgram("fft", nil, replayProcs),
			mustProgram("lu", nil, replayProcs),
		},
		job: serve.RunRequest{
			ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: replayProcs},
			Workload:   serve.Workload("fft", map[string]any{"logn": servedColdLogN}),
		},
	}
}

// --- served-mix ------------------------------------------------------

// served drives an in-process flashd over a loopback listener with two
// keep-alive clients in closed loop. A session is one cold run (a
// fingerprint the store has never seen) followed by warm resubmissions
// of primed keys. Fingerprints are made unique through the registered
// `seed` parameter: under SimOS-Mipsy without jitter it changes the
// memo key and nothing else, so every served result — cold or warm —
// must equal the one direct machine.Run of its job. The seed picks the
// cold fingerprints and the warm keys.
type served struct {
	plan     [][]int // per op: warm key indices
	coldBase uint64

	daemon  *daemon
	clients []*client.Client
	d       digests
	err     float64
}

const (
	servedKeys      = 256
	servedWarmPerOp = 100
	servedColdLogN  = 12
	servedWarmLogN  = 8
)

func servedRequest(logn int, seed uint64) serve.RunRequest {
	return serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: 1, Seed: seed},
		Workload:   serve.Workload("fft", map[string]any{"logn": logn}),
	}
}

func newServed(seed uint64, ops int) (instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &served{coldBase: 1_000_000 * (1 + seed%1_000_000)}
	for i := 0; i < ops; i++ {
		keys := make([]int, servedWarmPerOp)
		for k := range keys {
			keys[k] = rng.Intn(servedKeys)
		}
		s.plan = append(s.plan, keys)
	}
	return s, nil
}

func (s *served) describe(w io.Writer) {
	fmt.Fprintf(w, "primed keys: fft logn=%d seed=1..%d; cold: fft logn=%d seed=%d+op; client = op %% 2\n",
		servedWarmLogN, servedKeys, servedColdLogN, s.coldBase)
	for i, keys := range s.plan {
		fmt.Fprintf(w, "op %d cold seed %d warm keys %v\n", i, s.coldBase+uint64(i)+1, keys)
	}
}

func (s *served) setup() error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	s.daemon = d
	s.clients = []*client.Client{d.client(), d.client()}

	// The direct runs every served result is checked against, and the
	// hardware reference of the same two programs for err_pct.
	sum := 0.0
	for _, j := range []struct {
		key  string
		logn int
	}{{"cold", servedColdLogN}, {"warm", servedWarmLogN}} {
		req := servedRequest(j.logn, 1)
		cfg, err := req.Config()
		if err != nil {
			return err
		}
		prog, err := req.Workload.Program(cfg.Procs)
		if err != nil {
			return err
		}
		direct, err := machine.Run(cfg, prog)
		if err != nil {
			return err
		}
		if err := s.d.check(j.key, direct); err != nil {
			return err
		}
		ref, err := machine.Run(reference(cfg.Procs), prog)
		if err != nil {
			return err
		}
		sum += execErr(direct.Exec, ref.Exec)
	}
	s.err = 100 * sum / 2

	ctx := context.Background()
	for k := 0; k < servedKeys; k++ {
		if _, err := s.submit(ctx, 0, "warm", servedRequest(servedWarmLogN, uint64(k+1)), false, nil, -1, -1); err != nil {
			return fmt.Errorf("priming key %d: %w", k, err)
		}
	}
	// Warm-up session on each connection: one cold run and a few hits.
	for c := range s.clients {
		if _, err := s.submit(ctx, c, "cold", servedRequest(servedColdLogN, s.coldBase-uint64(c)), false, nil, -1, -1); err != nil {
			return err
		}
		for k := 0; k < 8; k++ {
			if _, err := s.submit(ctx, c, "warm", servedRequest(servedWarmLogN, uint64(k+1)), true, nil, -1, -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// submit sends one run and checks the response: 2xx, served from where
// it should be (wantCached), and bit-equal to the direct run under key.
func (s *served) submit(ctx context.Context, c int, key string, req serve.RunRequest, wantCached bool, tr *tracer, parent, op int) (uint64, error) {
	id := tr.begin("serve."+key, parent, op)
	resp, err := s.clients[c].Run(ctx, req)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if resp.Job.State != serve.StateDone {
		return 0, fmt.Errorf("job %s ended %s: %s", resp.Job.ID, resp.Job.State, resp.Job.Error)
	}
	if resp.Job.Cached != wantCached {
		return 0, fmt.Errorf("output check: %s job %s cached=%v, want %v", key, resp.Job.ID, resp.Job.Cached, wantCached)
	}
	return resp.Result.Instructions, s.d.check(key, resp.Result)
}

func (s *served) op(i int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	ctx := context.Background()
	c := i % len(s.clients)
	instrs, err := s.submit(ctx, c, "cold", servedRequest(servedColdLogN, s.coldBase+uint64(i)+1), false, tr, opSpan, i)
	if err != nil {
		return instrs, err
	}
	for _, k := range s.plan[i] {
		n, err := s.submit(ctx, c, "warm", servedRequest(servedWarmLogN, uint64(k+1)), true, tr, opSpan, i)
		if err != nil {
			return instrs, err
		}
		instrs += n
	}
	return instrs, nil
}

func (s *served) errPct() float64   { return s.err }
func (s *served) simDigest() string { return s.d.sum() }

func (s *served) memo() (hits, jobs int64) {
	if s.daemon == nil {
		return 0, 0
	}
	st := s.daemon.pool.Stats().Counters()
	return st.CacheHits, st.Jobs
}

func (s *served) close() {
	if s.daemon != nil {
		s.daemon.close()
		s.daemon = nil
	}
}

func (s *served) probe() probeInput {
	return probeInput{
		cfg: core.SimOSMipsy(1, 150, true),
		progs: []emitter.Program{
			mustProgram("fft", map[string]any{"logn": servedColdLogN}, 1),
			mustProgram("fft", map[string]any{"logn": servedWarmLogN}, 1),
		},
		job: servedRequest(servedColdLogN, 1),
	}
}
