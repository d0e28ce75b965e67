package emitter_test

// The discipline of the process-wide slab pool, seen from outside the
// package so that whole machines, the runner pool and flashd can be the
// callers: every slab a stream borrows comes back exactly once on every
// way out of a run, a warm pool makes nothing new, and nothing a run
// reports depends on what the slabs held before.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// small shrinks the registry's quick sizes further where a test wants
// many runs, or 32 nodes, under the race detector.
var small = map[string]map[string]any{
	"fft":   {"logn": 10},
	"radix": {"keys": 8 << 10},
	"oltp":  {"txns": 32},
}

// quickProgram is a registry workload at its quick defaults, with the
// sizes in small on top.
func quickProgram(tb testing.TB, name string, procs int) emitter.Program {
	tb.Helper()
	def, err := workload.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	vals, err := def.Resolve(small[name], true)
	if err != nil {
		tb.Fatal(err)
	}
	return def.Build(vals, procs)
}

// emitterGoroutines counts the goroutines running an emitter thread.
func emitterGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "emitter.Start.func")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// liveStream is a stream that stays running across a test: one thread
// read by two reader sets, parked after its ninth send with all nine
// slabs, set 0 on the ninth batch and set 1 on none. ids identifies the
// slabs it holds.
type liveStream struct {
	s   *emitter.Streams
	ids map[*isa.Instr]bool
}

func startLive(t *testing.T) *liveStream {
	l := &liveStream{ids: map[*isa.Instr]bool{}}
	l.s = emitter.Start(1, 2, func(th *emitter.Thread) {
		th.IntOps(4 * emitter.PoolSize * emitter.BatchSize)
	}, nil)
	t.Cleanup(l.s.Abort)
	for i := 0; i < emitter.PoolSize; i++ {
		l.ids[&l.s.Readers[0].NextBatch()[0]] = true
	}
	return l
}

// checkPool holds the free list to its invariants while live (which may
// be nil) is running: no slab twice, none of live's, no more than the
// bound; and no emitter goroutine but live's is left.
func checkPool(t *testing.T, live *liveStream) {
	t.Helper()
	ids := emitter.FreeSlabs()
	if len(ids) > emitter.MaxRetained {
		t.Errorf("free list holds %d slabs, bound is %d", len(ids), emitter.MaxRetained)
	}
	seen := map[*isa.Instr]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("slab %p is on the free list twice", id)
		}
		seen[id] = true
		if live != nil && live.ids[id] {
			t.Errorf("slab %p is on the free list and held by a running stream", id)
		}
	}
	want := 0
	if live != nil {
		want = 1
	}
	// A goroutine Abort has waited for may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for emitterGoroutines() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := emitterGoroutines(); n != want {
		t.Errorf("%d emitter goroutines left, want %d", n, want)
	}
}

// explodingDriver is an execution driver whose node-1 core panics on
// its third scheduling slice (engine_panic_test.go in internal/machine).
type explodingDriver struct{ machine.Driver }

type explodingCore struct {
	cpu.CPU
	slices int
}

func (c *explodingCore) Run(t sim.Ticks) cpu.Outcome {
	if c.slices++; c.slices == 3 {
		panic("core exploded")
	}
	return c.CPU.Run(t)
}

func (d explodingDriver) NewCore(i int, clock sim.Clock, port cpu.Port) cpu.CPU {
	core := d.Driver.NewCore(i, clock, port)
	if i == 1 {
		return &explodingCore{CPU: core}
	}
	return core
}

// readEach reads batches from each thread of s in turn until this call
// has taken n instructions from it (threads must not wait on one another).
func readEach(s *emitter.Streams, n uint64) {
	for _, r := range s.Readers {
		for read := uint64(0); read < n; {
			b := r.NextBatch()
			if b == nil {
				break
			}
			read += uint64(len(b))
		}
	}
}

// TestEverySlabComesBackOnce runs each way a stream can end with the
// free list emptied first, so that every slab the way borrows is one the
// process makes: what is on the list afterwards must be exactly those,
// less the batch a reader was on when the stream was aborted, each once
// (checkPool), while another stream is live beside it. The sampled run
// is refused before anything launches and must make none.
func TestEverySlabComesBackOnce(t *testing.T) {
	live := startLive(t)
	mipsy4 := core.SimOSMipsy(4, 150, true)
	ways := []struct {
		name string
		kept int // readers that may be on a batch when the stream is released
		run  func(t *testing.T)
	}{
		{"clean finish", 0, func(t *testing.T) {
			if _, err := machine.Run(mipsy4, quickProgram(t, "oltp", 4)); err != nil {
				t.Fatal(err)
			}
		}},
		{"config rejected before any core ran", 0, func(t *testing.T) {
			d := machine.NewExecutionDriver(mipsy4, quickProgram(t, "fft", 2))
			if _, err := machine.RunWith(mipsy4, d); err == nil {
				t.Fatal("a 2-thread program ran on a 4-processor machine")
			}
		}},
		{"event-loop panic", 4, func(t *testing.T) {
			d := explodingDriver{machine.NewExecutionDriver(mipsy4, quickProgram(t, "radix", 4))}
			defer func() {
				if r := recover(); r != "core exploded" {
					t.Errorf("recovered %v, want the core's panic", r)
				}
			}()
			machine.RunWith(mipsy4, d)
		}},
		{"workload panics on thread 3 of 8", 8, func(t *testing.T) {
			// Thread 3 dies holding the lock the others queue on; it
			// stays held, so they wait at it until the machine gives up
			// and aborts them, and the run reports the panic.
			prog := emitter.Program{Name: "dies", Threads: 8, Body: func(th *emitter.Thread, _ any) {
				if th.ID == 3 {
					th.Lock(1)
					th.IntOps(3 * emitter.BatchSize)
					panic("workload exploded")
				}
				th.IntOps(100)
				th.Lock(1)
				th.IntOps(10)
				th.Unlock(1)
				th.Barrier(7)
			}}
			_, err := machine.Run(core.SimOSMipsy(8, 150, true), prog)
			if err == nil || !strings.Contains(err.Error(), "workload exploded") {
				t.Fatalf("err = %v, want thread 3's panic", err)
			}
		}},
		{"abort with producers parked at barrier and lock", 3, func(t *testing.T) {
			// One waits at a barrier, one holds a lock, one has sent
			// its unlock; each reader is on a batch.
			emitter.ParkEverywhere().Abort()
		}},
		{"abort between a send and the next slab", 1, func(t *testing.T) {
			// The live stream's producer is parked after its ninth send,
			// before it takes a tenth slab; the ninth batch is set 0's,
			// not its own.
			startLive(t).s.Abort()
		}},
		{"abort with producers anywhere", 4, func(t *testing.T) {
			s := emitter.Start(4, 1, func(th *emitter.Thread) {
				for {
					th.IntOps(emitter.BatchSize / 3)
					th.Lock(uint32(th.ID))
					th.IntOps(7)
					th.Unlock(uint32(th.ID))
				}
			}, nil)
			readEach(s, 3*emitter.BatchSize)
			s.Abort()
			if n := s.Holds(); n != 0 {
				t.Errorf("an aborted stream still references %d slabs", n)
			}
			// A reader finishes the batch it is on and finds the end.
			for n := 0; ; n++ {
				if _, ok := s.Readers[0].Next(); !ok {
					break
				} else if n == emitter.BatchSize {
					t.Fatal("a released reader delivers more than the batch it was on")
				}
			}
		}},
		{"a fan of three, one refused", 0, func(t *testing.T) {
			// One emission read by three machines; the one Validate
			// refuses detaches before it reads anything.
			bad := mipsy4
			bad.ClockMHz = 7
			prog := quickProgram(t, "fft", 4)
			jobs := []runner.Job{{Config: mipsy4, Prog: prog}, {Config: bad, Prog: prog}, {Config: core.SimOSMXS(4, true), Prog: prog}}
			pool := runner.New(1, nil)
			for i, o := range pool.RunAll(context.Background(), jobs) {
				if (o.Err != nil) != (i == 1) {
					t.Errorf("job %d: err %v", i, o.Err)
				}
			}
			if st := pool.Stats(); st.Emissions != 1 {
				t.Errorf("three runs of one program took %d emissions", st.Emissions)
			}
		}},
		{"capture", 0, func(t *testing.T) {
			captureBytes(t, mipsy4, quickProgram(t, "lu", 4))
		}},
		{"sampled run", 0, func(t *testing.T) {
			// Sampling runs only on trace replay: the run is refused
			// before the program launches, so it makes no slab.
			cfg := mipsy4
			cfg.Sampling = machine.DefaultSampling()
			if _, err := machine.Run(cfg, quickProgram(t, "ocean", 4)); err == nil {
				t.Fatal("an execution-driven run took a sampling schedule")
			}
		}},
		{"flashd job cancelled mid-run", 0, func(t *testing.T) {
			srv := serve.New(serve.Options{Pool: runner.New(1, nil)})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			c := client.New(ts.URL, nil)
			ctx := context.Background()
			made := emitter.SlabsMade()
			st, err := c.SubmitRun(ctx, serve.RunRequest{
				ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: 8},
				Workload:   serve.Workload("gups", map[string]any{"updates": 1024}),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Cancel once the run has launched (the list was empty, so it
			// made its first slabs): a job cancelled between dequeue and
			// launch is never run, and there would be nothing to wait for.
			for emitter.SlabsMade() == made {
				time.Sleep(time.Millisecond)
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			// The worker has let go of the job; the run it abandoned is
			// not preempted and ends on its own.
			for srv.Pool().Stats().Ran == 0 {
				time.Sleep(time.Millisecond)
			}
		}},
	}
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			emitter.DropFreeSlabs()
			made := emitter.SlabsMade()
			w.run(t)
			borrowed := int(emitter.SlabsMade() - made)
			if w.name == "sampled run" {
				if borrowed != 0 {
					t.Fatalf("a refused run made %d slabs", borrowed)
				}
			} else if borrowed == 0 || borrowed > emitter.MaxRetained {
				t.Fatalf("the way borrowed %d slabs; it must borrow some and fit the bound of %d", borrowed, emitter.MaxRetained)
			}
			if back := len(emitter.FreeSlabs()); back > borrowed || back < borrowed-w.kept {
				t.Errorf("%d slabs borrowed, %d came back, and at most %d may stay with a reader", borrowed, back, w.kept)
			}
			checkPool(t, live)
		})
	}
}

// borrowAndReturn runs threads emitter threads that each borrow their
// full nine slabs, filling them with loads and CACHE ops that set every
// field of every slot, and gives them all back: reader set 0 drains each
// thread while set 1 has released none of its slabs, then set 1 drains.
func borrowAndReturn(threads int) {
	s := emitter.Start(threads, 2, func(th *emitter.Thread) {
		// One short of nine full batches: the ninth goes out with the end
		// of the stream, and a full one would wait for set 1 to give a
		// slab back.
		v := emitter.None
		for i := 0; i < emitter.PoolSize*emitter.BatchSize/2-1; i++ {
			v = th.Load(0xdead0000+uint64(i), 8, v, v)
			th.CacheOp(0xbeef0000+uint64(i), 0x15)
		}
	}, nil)
	for k := 0; k < 2; k++ {
		for _, r := range s.Set(k) {
			for r.NextBatch() != nil {
			}
		}
	}
	s.Abort()
}

// TestRetentionIsBounded: a stream with more in flight than maxRetained
// leaves exactly the bound behind.
func TestRetentionIsBounded(t *testing.T) {
	emitter.DropFreeSlabs()
	borrowAndReturn(emitter.MaxRetained/emitter.PoolSize + 8)
	if n := len(emitter.FreeSlabs()); n != emitter.MaxRetained {
		t.Errorf("%d slabs retained, want the bound %d", n, emitter.MaxRetained)
	}
	checkPool(t, nil)
}

// TestDroppedSlabIsNotPinned: a caller that ends a stream with Wait and
// never Aborts (the benchmark's probes do) drops the warm slabs it took.
// The list must not go on naming them from the slots they were popped
// from, or 18 MB stays in the live heap of a process that holds none.
func TestDroppedSlabIsNotPinned(t *testing.T) {
	emitter.DropFreeSlabs()
	borrowAndReturn(2)
	made := emitter.SlabsMade()
	s := emitter.Start(2, 1, func(th *emitter.Thread) { th.IntOps(3 * emitter.BatchSize) }, nil)
	readEach(s, math.MaxUint64) // to the end, where the producers finish
	s.Wait()
	if emitter.SlabsMade() != made || s.Holds() == 0 {
		t.Fatal("the stream did not borrow from the warm list")
	}
	if n := emitter.StaleSlots(); n != 0 {
		t.Errorf("the list still names %d slabs it has lent out", n)
	}
}

// TestSecondRunMakesNothing: gups at 32 nodes twice in one process. The
// second run borrows what the first gave back — no slab is made, and it
// allocates a fraction of what the first did (≈ 10 %: 1.9 of 20.7 MB).
func TestSecondRunMakesNothing(t *testing.T) {
	emitter.DropFreeSlabs()
	cfg := core.SimOSMipsy(32, 150, true)
	prog := quickProgram(t, "gups", 32)
	run := func() (allocated, made uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := emitter.SlabsMade()
		if _, err := machine.Run(cfg, prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, emitter.SlabsMade() - m
	}
	first, made := run()
	if made == 0 {
		t.Fatal("the first run made no slab: the free list was not cold")
	}
	second, made := run()
	if made != 0 {
		t.Errorf("the second run made %d slabs", made)
	}
	if second*10 >= first*4 {
		t.Errorf("the second run allocated %d bytes, the first %d: want under 40 %%", second, first)
	}
}

// captureBytes is the trace container of one captured run.
func captureBytes(t *testing.T, cfg machine.Config, prog emitter.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: prog.Threads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmthIsInvisible: a Result as the memo store writes it, and the
// bytes of a captured trace, are the same from a cold free list, from
// one the same run warmed, and from one whose slabs another workload
// left full of stale Addr/Size/Dep1/Dep2/Aux.
func TestWarmthIsInvisible(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  machine.Config
		prog emitter.Program
	}{
		{"fft-1p-simos-mxs", core.SimOSMXS(1, true), quickProgram(t, "fft", 1)},
		{"oltp-32p-hw", hw.Config(32, true), quickProgram(t, "oltp", 32)},
	} {
		t.Run(c.name, func(t *testing.T) {
			// observe runs prep before the plain run and before the capture.
			observe := func(prep func()) (result, container []byte) {
				prep()
				res, err := machine.Run(c.cfg, c.prog)
				if err != nil {
					t.Fatal(err)
				}
				if result, err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
				prep()
				return result, captureBytes(t, c.cfg, c.prog)
			}
			coldRes, coldTrace := observe(emitter.DropFreeSlabs)
			for _, warm := range []struct {
				name string
				prep func()
			}{
				{"warm", func() {}},
				{"warmed by another workload", func() { emitter.DropFreeSlabs(); borrowAndReturn(32) }},
			} {
				var made uint64 // as the capture, the later of the two runs, starts
				res, tr := observe(func() { warm.prep(); made = emitter.SlabsMade() })
				if emitter.SlabsMade() != made {
					t.Errorf("%s: the capture made slabs; the list was not warm", warm.name)
				}
				if !bytes.Equal(res, coldRes) {
					t.Errorf("%s: Result differs from the cold run's:\n%s\n%s", warm.name, res, coldRes)
				}
				if !bytes.Equal(tr, coldTrace) {
					t.Errorf("%s: trace container differs from the cold run's (%d vs %d bytes)", warm.name, len(tr), len(coldTrace))
				}
			}
		})
	}
}

// TestPoolIsShared: four goroutines, eight runs each of four different
// workloads, through one runner pool and so one slab pool; every run's
// digest is the one the same job gives alone. Run under -race.
func TestPoolIsShared(t *testing.T) {
	var jobs []runner.Job
	for _, name := range []string{"fft", "gups", "oltp", "radix"} {
		jobs = append(jobs, runner.Job{Config: core.SimOSMipsy(4, 150, true), Prog: quickProgram(t, name, 4)})
	}
	digest := func(o runner.Outcome) string {
		if o.Err != nil {
			return o.Err.Error()
		}
		data, err := json.Marshal(o.Result)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%x", sha256.Sum256(data))
	}
	ctx := context.Background()
	serial := runner.New(1, nil)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = digest(serial.RunOne(ctx, j))
	}
	pool := runner.New(4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(jobs)
				if got := digest(pool.RunOne(ctx, jobs[i])); got != want[i] {
					t.Errorf("goroutine %d run %d (%s): digest %s, alone %s", g, k, jobs[i].Prog.Name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	checkPool(t, nil)
}
