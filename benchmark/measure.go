package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// setupReps is how often set-up runs before the timed phase. The
// reported setup_s is the median, so one slow start (page faults on a
// cold binary, a busy disk) does not decide the number.
const setupReps = 3

// overrun is how far past -seconds the timed phase may be expected to
// end. The op count is fixed, not the duration; this only keeps a run in
// one of the host's slow episodes inside the contract's time limit.
const overrun = 1.07

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the outcome of one closed-loop run of ops, as the clock read
// it, plus the host-speed calibrations taken through it.
type phase struct {
	opMS      []float64 // wall time of every completed op
	traced    []bool    // whether the op at the same index was traced
	chainMS   []float64 // every calibration of the phase (hostspeed.go)
	instrs    uint64
	wall      time.Duration // calibrations excluded
	cpu       time.Duration // process user+system time, calibrations excluded
	mallocs   uint64
	bytes     uint64
	attempted int
	failed    int
	firstErr  error
}

// runPhase issues ops 0..ops-1 from the workload's closed-loop clients:
// client c runs ops c, c+clients, ... back to back, each waiting for its
// own previous op. The ops run in segments of segOps; between segments
// every client pauses while hs takes a calibration, so the calibrations
// sample the host's speed evenly through the phase. tracerFor selects
// the tracer of op i (nil = off).
func runPhase(inst instance, ops, clients, segOps int, limit time.Duration, hs *hostSpeed, tracerFor func(i int) *tracer) phase {
	var (
		mu sync.Mutex
		ph phase
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	client := func(c, lo, hi int) {
		for i := lo + c; i < hi; i += clients {
			tr := tracerFor(i)
			t0 := time.Now()
			n, err := inst.op(i, tr)
			d := time.Since(t0)
			mu.Lock()
			ph.attempted++
			ph.instrs += n
			if err != nil {
				ph.failed++
				if ph.firstErr == nil {
					ph.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			} else {
				ph.opMS = append(ph.opMS, float64(d)/1e6)
				ph.traced = append(ph.traced, tr != nil)
			}
			mu.Unlock()
		}
	}
	ph.chainMS = append(ph.chainMS, hs.measure())
	for lo, done := 0, 0; lo < ops; lo, done = lo+segOps, done+1 {
		// Stop early if one more segment like those so far would end
		// past the limit.
		if done > 0 && ph.wall+ph.wall/time.Duration(done) > limit {
			break
		}
		hi := min(lo+segOps, ops)
		cpu0 := processCPU()
		start := time.Now()
		if clients == 1 {
			client(0, lo, hi)
		} else {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client(c, lo, hi)
				}()
			}
			wg.Wait()
		}
		ph.wall += time.Since(start)
		ph.cpu += processCPU() - cpu0
		ph.chainMS = append(ph.chainMS, hs.measure())
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.bytes = m1.TotalAlloc - m0.TotalAlloc
	return ph
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runSetup runs the workload's set-up reps times, closing the state of
// every repetition but the last, and returns each duration in seconds
// and the calibrations taken around them.
func runSetup(inst instance, reps int, hs *hostSpeed) (secs, chainMS []float64, err error) {
	chainMS = append(chainMS, hs.measure())
	for r := 0; r < reps; r++ {
		if r > 0 {
			inst.close()
		}
		t0 := time.Now()
		if err := inst.setup(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		chainMS = append(chainMS, hs.measure())
	}
	return secs, chainMS, nil
}

// endToEnd derives the six gated metrics. The three timings are divided
// by slow, the slowdown the host showed over the run.
func endToEnd(setups []float64, ph phase, slow, errPct float64) map[string]metric {
	ops := float64(len(ph.opMS))
	return map[string]metric{
		"setup_s":           {median(setups) / slow, "s"},
		"op_ms_p50":         {median(ph.opMS) / slow, "ms"},
		"host_ns_per_instr": {float64(ph.wall) / float64(ph.instrs) / slow, "ns"},
		"allocs_per_op":     {float64(ph.mallocs) / ops, "count"},
		"alloc_kb_per_op":   {float64(ph.bytes) / 1024 / ops, "KB"},
		"err_pct":           {errPct, "%"},
	}
}

// speedLine summarises a run's calibrations for the report.
func speedLine(chainMS []float64) string {
	s := append([]float64(nil), chainMS...)
	sort.Float64s(s)
	return fmt.Sprintf("host slowdown %.3f (calibration chain median %.2f ms, min %.2f, max %.2f, nominal %.2f; n=%d)",
		slowdown(chainMS), percentile(s, 50), s[0], s[len(s)-1], nominalChainMS, len(s))
}

// tailLine renders the ungated tail of the op-time distribution.
func tailLine(opMS []float64) string {
	s := append([]float64(nil), opMS...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	if !ok {
		return fmt.Sprintf("n=%d, max %.3f ms (fewer than 10 samples beyond p90: median only)", len(s), s[len(s)-1])
	}
	return fmt.Sprintf("n=%d, p%g %.3f ms, max %.3f ms", len(s), p, percentile(s, p), s[len(s)-1])
}

// spanBackend is the tracing view of a memo store: it brackets every
// Get and Put the pool makes, and records the interval between a miss
// and the Put of the same key as an estimated machine.Run span — with
// one pool worker nothing else happens in between.
type spanBackend struct {
	inner  runner.Backend
	tr     *tracer
	op     int
	parent int

	mu      sync.Mutex
	missKey string
	missAt  time.Time
}

func (b *spanBackend) Get(key string) (machine.Result, bool) {
	id := b.tr.begin("runner.store_get", b.parent, b.op)
	res, ok := b.inner.Get(key)
	b.tr.end(id)
	if !ok {
		b.mu.Lock()
		b.missKey, b.missAt = key, time.Now()
		b.mu.Unlock()
	}
	return res, ok
}

func (b *spanBackend) Put(key string, res machine.Result) {
	now := time.Now()
	b.mu.Lock()
	if b.missKey == key {
		b.tr.add("machine.run(est)", b.missAt, now, b.parent, b.op)
		b.missKey = ""
	}
	b.mu.Unlock()
	id := b.tr.begin("runner.store_put", b.parent, b.op)
	b.inner.Put(key, res)
	b.tr.end(id)
}
