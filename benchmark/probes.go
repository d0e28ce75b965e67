package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"flashsim/internal/cache"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/cpu/mipsy"
	"flashsim/internal/cpu/mxs"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/osmodel"
	"flashsim/internal/proto"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/sim"
	"flashsim/internal/tlb"
	"flashsim/internal/trace"
	"flashsim/internal/vm"
)

// probeInput is what a workload hands the layer probes: the simulator
// configuration it runs under, the programs whose instruction and miss
// streams are fed through every layer, and the job the serving probes
// submit.
type probeInput struct {
	cfg   machine.Config
	progs []emitter.Program
	job   serve.RunRequest
}

// ledger collects per-layer metrics. Every probe brackets its calls
// into a layer with a span, so the span file shows where the traced
// run's own time went.
type ledger struct {
	tr   *tracer
	root int
	m    map[string]metric
}

func (l *ledger) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// reps is how many times a probe repeats a measurement.
const reps = 3

// medianOf calls f n times and returns the median of what it returns.
// It collects garbage first, so that a collection owed to an earlier
// probe is not charged to this one.
func medianOf(n int, f func() float64) float64 {
	runtime.GC()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// stream is one program's launched output: per-thread instructions.
type stream struct {
	prog    emitter.Program
	space   *emitter.AddressSpace
	threads [][]isa.Instr
	instrs  uint64
	batches uint64
}

// drain launches p and consumes every Reader to the end, one goroutine
// per thread (emitter threads really block on each other's barriers and
// locks). With keep set it returns the instructions; without, it only
// counts them, which is all a timed pass should pay for.
func drain(p emitter.Program, keep bool) *stream {
	space, s := p.Launch()
	out := &stream{prog: p, space: space, threads: make([][]isa.Instr, len(s.Readers))}
	counts := make([]uint64, len(s.Readers))
	var wg sync.WaitGroup
	for i, rd := range s.Readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				in, ok := rd.Next()
				if !ok {
					return
				}
				counts[i]++
				if keep {
					out.threads[i] = append(out.threads[i], in)
				}
			}
		}()
	}
	wg.Wait()
	s.Wait()
	for i, rd := range s.Readers {
		out.instrs += counts[i]
		out.batches += rd.Batches()
	}
	return out
}

// probeEmitter measures instruction generation: Program.Launch plus
// draining every Reader.
func (l *ledger) probeEmitter(in probeInput) []*stream {
	var streams []*stream
	var ns, allocs, batches, instrs float64
	for _, p := range in.progs {
		st := drain(p, true) // the streams every later probe is fed; untimed
		var a uint64
		ns += medianOf(reps, func() float64 {
			a0 := mallocs()
			d := l.tr.timed("emitter.launch_drain", l.root, func() { drain(p, false) })
			a = mallocs() - a0
			return float64(d)
		})
		allocs += float64(a)
		batches += float64(st.batches)
		instrs += float64(st.instrs)
		streams = append(streams, st)
	}
	l.set("emitter.gen_ns_per_instr", ns/instrs, "ns")
	l.set("emitter.allocs_per_kinstr", 1000*allocs/instrs, "count")
	l.set("emitter.batches_per_kinstr", 1000*batches/instrs, "count")
	return streams
}

// probeTrace measures the trace container: encode through Writer.Tap,
// decode through every thread's Cursor, and PrepareReplay.
func (l *ledger) probeTrace(streams []*stream) error {
	var enc, dec, prep, size, instrs float64
	for _, st := range streams {
		var data []byte
		var encErr error
		enc += medianOf(reps, func() float64 {
			var buf bytes.Buffer
			d := l.tr.timed("trace.encode", l.root, func() {
				tw, err := trace.NewWriter(&buf, trace.Meta{Workload: st.prog.FullName(), Threads: len(st.threads)})
				if err != nil {
					encErr = err
					return
				}
				for off := 0; ; off += emitter.BatchSize {
					more := false
					for t, ins := range st.threads {
						if off < len(ins) {
							tw.Tap(t, ins[off:min(off+emitter.BatchSize, len(ins))])
							more = true
						}
					}
					if !more {
						break
					}
				}
				tw.SetLayout(st.space)
				encErr = tw.Finish()
			})
			data = buf.Bytes()
			return float64(d)
		})
		if encErr != nil {
			return fmt.Errorf("trace encode: %w", encErr)
		}
		var decErr error
		dec += medianOf(reps, func() float64 {
			return float64(l.tr.timed("trace.decode", l.root, func() {
				tr, err := trace.Decode(data)
				if err != nil {
					decErr = err
					return
				}
				for t := 0; t < tr.Threads(); t++ {
					cur := tr.Thread(t)
					for {
						batch, err := cur.NextBatch()
						if err != nil {
							decErr = err
							return
						}
						if batch == nil {
							break
						}
					}
				}
			}))
		})
		if decErr != nil {
			return fmt.Errorf("trace decode: %w", decErr)
		}
		var prepErr error
		prep += medianOf(reps, func() float64 {
			return float64(l.tr.timed("machine.prepare_replay", l.root, func() {
				tr, err := trace.Decode(data)
				if err == nil {
					_, err = machine.PrepareReplay(tr)
				}
				prepErr = err
			}))
		})
		if prepErr != nil {
			return fmt.Errorf("prepare replay: %w", prepErr)
		}
		size += float64(len(data))
		instrs += float64(st.instrs)
	}
	l.set("trace.encode_ns_per_instr", enc/instrs, "ns")
	l.set("trace.decode_ns_per_instr", dec/instrs, "ns")
	l.set("trace.prepare_ms", prep/1e6/float64(len(streams)), "ms")
	l.set("trace.bytes_per_instr", size/instrs, "bytes")
	return nil
}

// sliceStream is a cpu.Stream over a captured instruction slice.
type sliceStream struct {
	ins []isa.Instr
	pos int
}

func (s *sliceStream) Next() (isa.Instr, bool) {
	if s.pos >= len(s.ins) {
		return isa.Instr{}, false
	}
	in := s.ins[s.pos]
	s.pos++
	return in, true
}

// hitPort is a cpu.Port on which every access hits the primary cache,
// so a core's own cost is measured without the memory path.
type hitPort struct{ hit sim.Ticks }

func (p hitPort) Load(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit, L1Hit: true}
}
func (p hitPort) Store(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit, L1Hit: true}
}
func (p hitPort) Prefetch(sim.Ticks, uint64) {}
func (p hitPort) CacheOp(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit}
}
func (p hitPort) SyscallCost(uint32) uint32 { return 100 }

// probeCPU runs both processor models over the captured streams.
func (l *ledger) probeCPU(in probeInput, streams []*stream) {
	clock := sim.NewClock(in.cfg.ClockMHz)
	port := hitPort{hit: clock.Cycles(1)}
	run := func(c cpu.CPU) {
		t := sim.Ticks(0)
		for {
			out := c.Run(t)
			if out.Kind == cpu.Finished {
				return
			}
			t = out.Time
		}
	}
	var instrs float64
	for _, st := range streams {
		instrs += float64(st.instrs)
	}
	model := func(span string, mk func(src cpu.Stream) cpu.CPU) float64 {
		return medianOf(reps, func() float64 {
			return float64(l.tr.timed(span, l.root, func() {
				for _, st := range streams {
					for _, ins := range st.threads {
						run(mk(&sliceStream{ins: ins}))
					}
				}
			}))
		}) / instrs
	}
	l.set("cpu.mipsy_ns_per_instr", model("cpu.mipsy.run", func(src cpu.Stream) cpu.CPU {
		return mipsy.New(mipsy.Config{Clock: clock, Quantum: in.cfg.Quantum}, src, port)
	}), "ns")
	l.set("cpu.mxs_ns_per_instr", model("cpu.mxs.run", func(src cpu.Stream) cpu.CPU {
		mc := mxs.DefaultConfig(clock)
		mc.Quantum = in.cfg.Quantum
		return mxs.New(mc, src, port)
	}), "ns")
}

// miss is one secondary-cache miss of the probe hierarchy: the request
// the memory system sees, plus the dirty victim it displaced.
type miss struct {
	node    int
	line    uint64
	write   bool
	victim  uint64
	writeWB bool
}

// probeMemPath feeds the streams' loads and stores through per-node
// TLBs and a two-level cache hierarchy (cfg's geometry), and returns
// the resulting miss stream. The hierarchy is the layers' public API
// composed the simplest way, not the machine's port: no write buffer,
// MSHRs, or cross-node invalidations.
func (l *ledger) probeMemPath(in probeInput, streams []*stream) []miss {
	const chunk = 64 // references a node issues before the next node's turn
	var misses []miss
	var tlbNS, cacheNS, refs float64
	for _, st := range streams {
		nodes := len(st.threads)
		pt := osmodel.NewPageTable(in.cfg.OS.Kind, st.space, nodes, in.cfg.Colors())
		type ref struct {
			va, pa uint64
			write  bool
		}
		perNode := make([][]ref, nodes)
		total := 0
		for n, ins := range st.threads {
			for _, i := range ins {
				if i.Op != isa.Load && i.Op != isa.Store {
					continue
				}
				pp, _ := pt.Translate(i.Addr, n)
				perNode[n] = append(perNode[n], ref{i.Addr, pp.Addr(i.Addr & (vm.PageSize - 1)), i.Op == isa.Store})
			}
			total += len(perNode[n])
		}
		tlbCfg := tlb.R10000()
		if in.cfg.OS.TLBEntries > 0 {
			tlbCfg.Entries = in.cfg.OS.TLBEntries
		}
		tlbNS += medianOf(reps, func() float64 {
			tlbs := make([]*tlb.TLB, nodes)
			for n := range tlbs {
				tlbs[n] = tlb.New(tlbCfg)
			}
			return float64(l.tr.timed("tlb.access", l.root, func() {
				for n, rs := range perNode {
					t := tlbs[n]
					for _, r := range rs {
						t.Access(vm.VPage(r.va))
					}
				}
			}))
		})
		var got []miss
		cacheNS += medianOf(reps, func() float64 {
			l1 := make([]*cache.Cache, nodes)
			l2 := make([]*cache.Cache, nodes)
			for n := range l1 {
				l1[n], l2[n] = cache.New(in.cfg.L1D), cache.New(in.cfg.L2)
			}
			got = make([]miss, 0, total/4)
			return float64(l.tr.timed("cache.access", l.root, func() {
				for off := 0; ; off += chunk {
					more := false
					for n, rs := range perNode {
						if off >= len(rs) {
							continue
						}
						more = true
						for _, r := range rs[off:min(off+chunk, len(rs))] {
							if _, hit := l1[n].Access(r.pa, r.write); hit {
								continue
							}
							fill := cache.Shared
							if r.write {
								fill = cache.Modified
							}
							if _, hit := l2[n].Access(r.pa, r.write); !hit {
								v := l2[n].Insert(r.pa, fill)
								got = append(got, miss{node: n, line: in.cfg.L2.LineAddr(r.pa), write: r.write,
									victim: v.Addr, writeWB: v.Valid && v.Dirty})
							}
							l1[n].Insert(r.pa, fill)
						}
					}
					if !more {
						break
					}
				}
			}))
		})
		misses = append(misses, got...)
		refs += float64(total)
	}
	l.set("tlb.access_ns", tlbNS/refs, "ns")
	l.set("cache.access_ns", cacheNS/refs, "ns")
	return misses
}

// minMisses pads a short miss stream by repetition so the memory-system
// probes time enough calls to resolve (a uniprocessor quick run misses
// a few thousand times).
const minMisses = 100_000

// probeMemsys feeds the miss stream to FlashLite and to its parts.
func (l *ledger) probeMemsys(in probeInput, misses []miss) {
	if len(misses) == 0 {
		misses = []miss{{line: 0}}
	}
	rounds := (minMisses + len(misses) - 1) / len(misses)
	calls := float64(rounds * len(misses))
	nodes := in.cfg.Procs
	// A uniprocessor stream never leaves its node: the network and
	// remote handlers get no input from it. Spread its lines over four
	// nodes there, so the numbers exist but describe no real traffic.
	netNodes := max(nodes, 4)
	home := func(m miss) int {
		if nodes > 1 {
			return vm.NodeOf(m.line)
		}
		return int(m.line>>7) % netNodes
	}

	l.set("memsys.flashlite_ns_per_req", medianOf(reps, func() float64 {
		f := memsys.NewFlashLite(memsys.DefaultFlashConfig(nodes, in.cfg.FlashTiming))
		clock := make([]sim.Ticks, nodes)
		return float64(l.tr.timed("memsys.flashlite", l.root, func() {
			for r := 0; r < rounds; r++ {
				for _, m := range misses {
					t := clock[m.node]
					if m.writeWB {
						f.Writeback(t, m.node, m.victim)
					}
					var res memsys.Result
					if m.write {
						res = f.Write(t, m.node, m.line)
					} else {
						res = f.Read(t, m.node, m.line)
					}
					clock[m.node] = res.Done
				}
			}
		}))
	})/calls, "ns")

	l.set("proto.dir_ns_per_op", medianOf(reps, func() float64 {
		d := proto.NewDirectory(netNodes, 0)
		return float64(l.tr.timed("proto.directory", l.root, func() {
			for r := 0; r < rounds; r++ {
				for _, m := range misses {
					if m.writeWB {
						d.Writeback(m.victim, m.node)
					}
					if m.write {
						d.Write(m.line, home(m), m.node)
					} else {
						d.Read(m.line, home(m), m.node)
					}
				}
			}
		}))
	})/calls, "ns")

	l.set("network.send_ns_per_msg", medianOf(reps, func() float64 {
		n := network.New(network.DefaultConfig(netNodes))
		t := sim.Ticks(0)
		return float64(l.tr.timed("network.send", l.root, func() {
			for r := 0; r < rounds; r++ {
				for _, m := range misses {
					h := home(m)
					if h == m.node {
						h = (h + 1) % netNodes
					}
					t = n.Send(t, m.node, h, memsys.ReqBytes)
					t = n.Send(t, h, m.node, memsys.DataBytes)
				}
			}
		}))
	})/(2*calls), "ns")

	l.set("magic.handler_ns", medianOf(reps, func() float64 {
		c := magic.New(magic.DefaultConfig())
		t := sim.Ticks(0)
		return float64(l.tr.timed("magic.handler", l.root, func() {
			for r := 0; r < rounds; r++ {
				for _, m := range misses {
					h := magic.HNILocalGet
					if m.write {
						h = magic.HNIGetX
					}
					t = c.RunHandler(t, h, 0)
					t = c.Memory(t, m.line, true)
				}
			}
		}))
	})/(2*calls), "ns")
}

type nopHandler struct{}

func (nopHandler) HandleEvent(sim.Ticks, uint64) {}

// probeQueue measures the event queue's hold operation (fire one,
// schedule one) at a depth of two pending events per node, about what
// the windowed engine keeps.
func (l *ledger) probeQueue(in probeInput) {
	const events = 1_000_000
	depth := 2 * in.cfg.Procs
	l.set("sim.queue_ns_per_event", medianOf(reps, func() float64 {
		q := sim.NewQueue()
		var h sim.Handler = nopHandler{}
		for i := 0; i < depth; i++ {
			q.ScheduleFn(sim.Ticks(i), int32(i&3), h, uint64(i))
		}
		return float64(l.tr.timed("sim.queue.hold", l.root, func() {
			for i := 0; i < events; i++ {
				q.Step()
				q.ScheduleFn(q.Now()+sim.Ticks(depth), int32(i&3), h, uint64(i))
			}
		}))
	})/events, "ns")
}

// probeMachine brackets the machine's entry points on the first probe
// program and derives the layer counts from the run's own Result.
func (l *ledger) probeMachine(in probeInput) (machine.Result, error) {
	cfg, prog := in.cfg, in.progs[0]
	var res machine.Result
	var err error
	timeRun := func(span string, f func() (machine.Result, error)) float64 {
		return medianOf(reps, func() float64 {
			return float64(l.tr.timed(span, l.root, func() {
				r, e := f()
				if e != nil && err == nil {
					err = fmt.Errorf("%s: %w", span, e)
				}
				res = r
			}))
		})
	}
	a0 := mallocs()
	runNS := timeRun("machine.run", func() (machine.Result, error) { return machine.Run(cfg, prog) })
	allocs := float64(mallocs()-a0) / reps
	run := res
	if err != nil {
		return run, err
	}
	instrs := float64(run.Instructions)
	k := 1000 / instrs

	var data []byte
	capNS := timeRun("machine.run_capture", func() (machine.Result, error) {
		var buf bytes.Buffer
		tw, e := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: prog.Threads})
		if e != nil {
			return machine.Result{}, e
		}
		r, e := machine.RunCapture(cfg, prog, tw)
		data = buf.Bytes()
		return r, e
	})
	if err != nil {
		return run, err
	}
	dec, e := trace.Decode(data)
	if e != nil {
		return run, e
	}
	img, e := machine.PrepareReplay(dec)
	if e != nil {
		return run, e
	}
	replayNS := timeRun("machine.run_replay", func() (machine.Result, error) { return machine.RunReplay(cfg, img) })
	sampled := cfg
	sampled.Sampling = machine.DefaultSampling()
	sampledNS := timeRun("machine.run_replay.sampled", func() (machine.Result, error) { return machine.RunReplay(sampled, img) })

	// The parallel numbers: the same run with both host CPUs, serial
	// and split across two shards. Ungated — they depend on the host's
	// core count, which is what they are for.
	old := runtime.GOMAXPROCS(runtime.NumCPU())
	wideNS := timeRun("machine.run.gomaxprocs", func() (machine.Result, error) { return machine.Run(cfg, prog) })
	sharded := cfg
	sharded.Shards = 2
	shardNS := timeRun("machine.run.shards2", func() (machine.Result, error) { return machine.Run(sharded, prog) })
	runtime.GOMAXPROCS(old)
	if err != nil {
		return run, err
	}

	l.set("machine.run_ns_per_instr", runNS/instrs, "ns")
	l.set("machine.replay_ns_per_instr", replayNS/instrs, "ns")
	l.set("machine.sampled_replay_ns_per_instr", sampledNS/instrs, "ns")
	l.set("machine.capture_overhead_pct", 100*(capNS-runNS)/runNS, "%")
	l.set("machine.allocs_per_kinstr", allocs*k, "count")
	l.set("machine.gomaxprocs_speedup", runNS/wideNS, "x")
	l.set("machine.shards2_speedup", wideNS/shardNS, "x")

	m := run.Metrics
	l.set("cache.l2_miss_per_kinstr", float64(m.L2.Misses)*k, "count")
	l.set("tlb.miss_per_kinstr", float64(run.TLBMisses)*k, "count")
	l.set("memsys.reqs_per_kinstr", float64(m.Dir.Reads+m.Dir.Writes+m.Dir.Writebacks)*k, "count")
	l.set("network.msgs_per_kinstr", float64(m.Net.Messages)*k, "count")
	l.set("proto.invals_per_kinstr", float64(m.Dir.Invalidations)*k, "count")
	l.set("sim.events_per_kinstr", float64(m.Queue.Fired)*k, "count")
	return run, nil
}

// setMachineSelf estimates what the machine layer itself costs per
// instruction: the run minus what the layers below it cost when driven
// alone at the run's own rates. An estimate, not a measurement: it
// holds the port prefix, the engine loop and the barrier's merge, sort
// and execute.
func (l *ledger) setMachineSelf(in probeInput, run machine.Result) {
	v := func(name string) float64 { return l.m[name].Value }
	instrs := float64(run.Instructions)
	memRefs := float64(run.Metrics.L1.Hits+run.Metrics.L1.Misses) / instrs
	core := v("cpu.mipsy_ns_per_instr")
	if in.cfg.CPU == machine.CPUMXS {
		core = v("cpu.mxs_ns_per_instr")
	}
	below := v("emitter.gen_ns_per_instr") + core +
		memRefs*(v("cache.access_ns")+v("tlb.access_ns")) +
		v("memsys.reqs_per_kinstr")/1000*v("memsys.flashlite_ns_per_req") +
		v("sim.events_per_kinstr")/1000*v("sim.queue_ns_per_event")
	l.set("machine.self_ns_per_instr", v("machine.run_ns_per_instr")-below, "ns")
}

// probeRunner measures fingerprinting, the memo store, the pool's hit
// path and its overhead over a direct run, and the shared disk store.
func (l *ledger) probeRunner(in probeInput, res machine.Result, hits, jobs int64) error {
	const n = 200
	cfg, prog := in.cfg, in.progs[len(in.progs)-1]
	perCall := func(span string, count int, f func(i int)) float64 {
		return medianOf(reps, func() float64 {
			return float64(l.tr.timed(span, l.root, func() {
				for i := 0; i < count; i++ {
					f(i)
				}
			}))
		}) / float64(count) / 1e3
	}
	keys := make([]string, n)
	for i := range keys {
		c := cfg
		c.Seed = uint64(i + 1)
		keys[i] = runner.Fingerprint(c, prog)
	}
	l.set("runner.fingerprint_us", perCall("runner.fingerprint", n, func(i int) {
		c := cfg
		c.Seed = uint64(i + 1)
		runner.Fingerprint(c, prog)
	}), "us")
	store, err := runner.NewStore("")
	if err != nil {
		return err
	}
	l.set("runner.store_put_us", perCall("runner.store_put", n, func(i int) { store.Put(keys[i], res) }), "us")
	l.set("runner.store_get_us", perCall("runner.store_get", n, func(i int) { store.Get(keys[i]) }), "us")

	ctx := context.Background()
	job := runner.Job{Config: cfg, Prog: prog}
	pool := runner.New(1, store)
	if out := pool.RunOne(ctx, job); out.Err != nil {
		return out.Err
	}
	l.set("runner.pool_hit_us", perCall("runner.pool_hit", n, func(int) { pool.RunOne(ctx, job) }), "us")

	// The overhead is a small difference of two run times, so direct
	// and pooled runs alternate and the median pairwise difference is
	// reported; a short program affords more pairs.
	bare := runner.Serial()
	pairs := reps
	var overhead []float64
	for i := 0; i < pairs; i++ {
		direct := l.tr.timed("machine.run", l.root, func() { _, err = machine.Run(cfg, prog) })
		if err != nil {
			return err
		}
		pooled := l.tr.timed("runner.pool_run", l.root, func() { bare.RunOne(ctx, job) })
		overhead = append(overhead, 100*float64(pooled-direct)/float64(direct))
		if i == 0 && direct < 20*time.Millisecond {
			pairs = 5 * reps
		}
	}
	l.set("runner.pool_overhead_pct", median(overhead), "%")
	hitPct := 0.0
	if jobs > 0 {
		hitPct = 100 * float64(hits) / float64(jobs)
	}
	l.set("runner.memo_hit_pct", hitPct, "%")

	// Two independent jobs on one worker and on two, with both host
	// CPUs available: the pool's own parallel speed-up (ungated).
	batch := make([]runner.Job, 2)
	for i := range batch {
		batch[i] = runner.Job{Config: cfg, Prog: prog, Seed: uint64(i + 1)}
	}
	old := runtime.GOMAXPROCS(runtime.NumCPU())
	one := medianOf(reps, func() float64 {
		return float64(l.tr.timed("runner.pool_batch.w1", l.root, func() { runner.New(1, nil).RunAll(ctx, batch) }))
	})
	two := medianOf(reps, func() float64 {
		return float64(l.tr.timed("runner.pool_batch.w2", l.root, func() { runner.New(2, nil).RunAll(ctx, batch) }))
	})
	runtime.GOMAXPROCS(old)
	l.set("runner.pool2_speedup", one/two, "x")

	// The shared on-disk store, on whatever disk the checkout is on.
	dir, err := os.MkdirTemp(scratchDir(), "probe-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := runner.NewDiskBackend(dir)
	if err != nil {
		return err
	}
	const nd = 50
	l.set("runner.disk_put_us", perCall("runner.disk_put", nd, func(i int) { disk.Put(keys[i], res) }), "us")
	l.set("runner.disk_get_us", perCall("runner.disk_get", nd, func(i int) { disk.Get(keys[i]) }), "us")
	return disk.Err()
}

// scratchDir is where the benchmark writes files: inside the checkout
// it was started in, next to the built binary.
func scratchDir() string {
	dir := filepath.Join(".bench_build", "tmp")
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces in the caller's MkdirTemp
	return dir
}

// probeServe measures the serving path around one job: cold and warm
// submit-to-result latency over a keep-alive connection, the wire
// codec, the response size, and what each served job leaves behind in
// the daemon (Server.jobs is never pruned).
func (l *ledger) probeServe(in probeInput) error {
	const colds, warms = 5, 300
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.close()
	cl := d.client()
	ctx := context.Background()

	cfg, err := in.job.Config()
	if err != nil {
		return err
	}
	prog, err := in.job.Workload.Program(cfg.Procs)
	if err != nil {
		return err
	}
	var direct machine.Result
	directMS := medianOf(reps, func() float64 {
		return float64(l.tr.timed("machine.run", l.root, func() { direct, err = machine.Run(cfg, prog) })) / 1e6
	})
	if err != nil {
		return err
	}

	runtime.GC()
	var h0 runtime.MemStats
	runtime.ReadMemStats(&h0)
	submit := func(span string, seed uint64, wantCached bool) (float64, error) {
		req := in.job
		req.Seed = seed
		var resp serve.RunResponse
		var err error
		d := l.tr.timed(span, l.root, func() { resp, err = cl.Run(ctx, req) })
		if err == nil && resp.Job.Cached != wantCached {
			err = fmt.Errorf("%s: cached=%v, want %v", span, resp.Job.Cached, wantCached)
		}
		if err == nil && resultDigest(resp.Result) != resultDigest(direct) {
			err = fmt.Errorf("%s: served result differs from the direct run", span)
		}
		return float64(d) / 1e6, err
	}
	var cold, warm []float64
	for i := 0; i < colds; i++ {
		ms, err := submit("serve.cold", uint64(1000+i), false)
		if err != nil {
			return err
		}
		cold = append(cold, ms)
	}
	for i := 0; i < warms; i++ {
		ms, err := submit("serve.warm", uint64(1000+i%colds), true)
		if err != nil {
			return err
		}
		warm = append(warm, ms)
	}
	runtime.GC()
	var h1 runtime.MemStats
	runtime.ReadMemStats(&h1)
	sort.Float64s(warm)
	l.set("serve.cold_ms_p50", median(cold), "ms")
	l.set("serve.cold_overhead_ms", median(cold)-directMS, "ms")
	l.set("serve.warm_ms_p50", percentile(warm, 50), "ms")
	l.set("serve.warm_ms_p99", percentile(warm, 99), "ms")
	l.set("serve.rss_kb_per_job", (float64(h1.HeapAlloc)-float64(h0.HeapAlloc))/1024/(colds+warms), "KB")

	var stored serve.StoredResult
	l.set("serve.encode_stored_us", medianOf(reps, func() float64 {
		return float64(l.tr.timed("serve.encode_stored", l.root, func() {
			for i := 0; i < 100; i++ {
				stored, err = serve.EncodeStored(direct)
			}
		})) / 100 / 1e3
	}), "us")
	if err != nil {
		return err
	}
	l.set("serve.decode_stored_us", medianOf(reps, func() float64 {
		return float64(l.tr.timed("serve.decode_stored", l.root, func() {
			for i := 0; i < 100; i++ {
				_, err = stored.Decode()
			}
		})) / 100 / 1e3
	}), "us")
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.RunResponse{Result: direct})
	if err != nil {
		return err
	}
	l.set("serve.resp_kb", float64(len(body))/1024, "KB")
	return nil
}

// probeStudy brackets the paper's study: both figures on a fresh quick
// session, one calibration, one reference measurement, and snbench's
// dependent-load chains.
func (l *ledger) probeStudy() error {
	store, err := runner.NewStore("")
	if err != nil {
		return err
	}
	sess := harness.NewSessionWithPool(harness.ScaleQuick, runner.New(1, store))
	var r1, r3 core.CompareResult
	ms := func(span string, f func()) float64 { return float64(l.tr.timed(span, l.root, f)) / 1e6 }
	l.set("harness.figure1_ms", ms("harness.figure1", func() { r1, _, err = sess.Figure1() }), "ms")
	if err != nil {
		return err
	}
	l.set("harness.figure3_ms", ms("harness.figure3", func() { r3, _, err = sess.Figure3() }), "ms")
	if err != nil {
		return err
	}
	l.set("core.err_untuned_pct", 100*meanAbsRelative(r1), "%")
	l.set("core.err_tuned_pct", 100*meanAbsRelative(r3), "%")

	fresh := harness.NewSession(harness.ScaleQuick)
	l.set("core.calibrate_ms", medianOf(reps, func() float64 {
		return ms("core.calibrate", func() {
			_, err = core.NewCalibrator(fresh.Ref).Calibrate(core.SimOSMipsy(1, 150, true))
		})
	}), "ms")
	if err != nil {
		return err
	}
	fft := harness.ScaleQuick.FFTWorkload(true).Make(1)
	l.set("core.reference_ms", medianOf(reps, func() float64 {
		return ms("core.reference", func() { _, err = fresh.Ref.MeasureAt(fft, 1) })
	}), "ms")
	if err != nil {
		return err
	}
	l.set("snbench.deploads_ms", medianOf(reps, func() float64 {
		return ms("snbench.dependent_loads", func() {
			_, err = core.NewCalibrator(fresh.Ref).DependentLoadLatencies()
		})
	}), "ms")
	return err
}

// runProbes runs every layer probe on the workload's streams.
func runProbes(tr *tracer, in probeInput, hits, jobs int64) (map[string]metric, error) {
	l := &ledger{tr: tr, m: make(map[string]metric)}
	l.root = tr.begin("probes", -1, -1)
	defer tr.end(l.root)

	streams := l.probeEmitter(in)
	if err := l.probeTrace(streams); err != nil {
		return nil, err
	}
	l.probeCPU(in, streams)
	misses := l.probeMemPath(in, streams)
	l.probeMemsys(in, misses)
	l.probeQueue(in)
	run, err := l.probeMachine(in)
	if err != nil {
		return nil, err
	}
	l.setMachineSelf(in, run)
	if err := l.probeRunner(in, run, hits, jobs); err != nil {
		return nil, err
	}
	if err := l.probeServe(in); err != nil {
		return nil, err
	}
	if err := l.probeStudy(); err != nil {
		return nil, err
	}
	return l.m, nil
}
