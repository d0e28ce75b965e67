package machine

import (
	"fmt"

	"flashsim/internal/cache"
	"flashsim/internal/emitter"
	"flashsim/internal/network"
	"flashsim/internal/osmodel"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/tlb"
)

// Result is the outcome of one machine run.
type Result struct {
	// Config names the simulator that produced the result; Workload
	// names the program it ran.
	Config   string
	Workload string
	// Procs is the processor count.
	Procs int

	// Exec is the timed parallel section (between the releases of
	// BarrierStart and BarrierEnd), with jitter applied; Total is the
	// full run.
	Exec  sim.Ticks
	Total sim.Ticks

	// Instructions is the total committed instruction count.
	Instructions uint64

	// TLBMisses is Metrics.TLB.Misses. It stays only because the frozen
	// benchmark/probes.go reads it, and goes when that does.
	TLBMisses uint64

	// CaseCounts sums the nodes' memory ports: the protocol cases of
	// the data accesses they issued. It is not a copy of
	// Metrics.Dir.CaseCounts, which also counts the lock and barrier
	// writes the machine sends to the memory system past the ports.
	CaseCounts [proto.NumCases]uint64

	// BarrierReleases records the release time(s) of every barrier id.
	BarrierReleases map[uint32][]sim.Ticks

	// Sampled reports whether the run used a sampling schedule;
	// Sampling carries its window accounting (aggregated over nodes).
	Sampled  bool
	Sampling SamplingStats

	// Metrics is every subsystem's counters. It is part of the Result,
	// so memoized results replay their metrics from the store exactly
	// as a fresh run would report them.
	Metrics Metrics
}

// Metrics is one run's counter tree: each subsystem's own stats type,
// held once, the caches and TLBs summed over nodes. A counter is a
// field of its subsystem's struct, a line of that struct's Add and a
// line of obs.WritePrometheus; nothing else names it.
type Metrics struct {
	Queue   sim.QueueStats
	Emitter emitter.Stats
	L1      cache.Stats
	L2      cache.Stats
	TLB     tlb.Stats
	Dir     proto.DirStats
	Net     network.NetStats
	OS      osmodel.Counters
}

// Add accumulates o into m.
func (m *Metrics) Add(o Metrics) {
	m.Queue.Add(o.Queue)
	m.Emitter.Add(o.Emitter)
	m.L1.Add(o.L1)
	m.L2.Add(o.L2)
	m.TLB.Add(o.TLB)
	m.Dir.Add(o.Dir)
	m.Net.Add(o.Net)
	m.OS.Add(o.OS)
}

// ExecSeconds returns the parallel-section time in seconds.
func (r Result) ExecSeconds() float64 { return float64(r.Exec) / sim.TickHz }

// ExecNS returns the parallel-section time in nanoseconds.
func (r Result) ExecNS() float64 { return sim.ToNS(r.Exec) }

// L1MissRate returns misses/(hits+misses) for the L1 data caches.
func (r Result) L1MissRate() float64 { return missRate(r.Metrics.L1) }

// L2MissRate returns misses/(hits+misses) for the secondary caches.
func (r Result) L2MissRate() float64 { return missRate(r.Metrics.L2) }

func missRate(s cache.Stats) float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Misses) / float64(tot)
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%s p=%d exec=%.3fms instr=%d l2miss=%.2f%% tlbmiss=%d",
		r.Config, r.Procs, r.ExecSeconds()*1e3, r.Instructions, 100*r.L2MissRate(), r.Metrics.TLB.Misses)
}

// collect assembles the Result after the event loop drains. em is the
// instruction-stream accounting: the drained Streams counters for an
// execution-driven run, or the replay image's recorded equivalents.
func (m *Machine) collect(em emitter.Stats) Result {
	r := Result{
		Config:          m.cfg.Name,
		Procs:           m.cfg.Procs,
		BarrierReleases: m.barrierRel,
		Metrics: Metrics{
			Emitter: em,
			TLB:     m.os.TLBStats(),
			Dir:     m.mem.Directory().Stats(),
			OS:      m.os.Counters(),
		},
	}
	r.TLBMisses = r.Metrics.TLB.Misses
	if net := m.mem.Net(); net != nil {
		r.Metrics.Net = net.Stats()
	}
	r.Metrics.Queue = m.queue.Stats()
	for i, n := range m.nodes {
		r.Instructions += n.core.Instructions()
		if sc, ok := n.core.(*sampledCPU); ok {
			r.Sampled = true
			r.Sampling.add(sc.sampling())
		}
		r.Metrics.L1.Add(n.port.l1.Stats())
		r.Metrics.L2.Add(n.port.l2.Stats())
		for c, k := range n.port.cases {
			r.CaseCounts[c] += k
		}
		if ft := m.finishTimes[i]; ft > r.Total {
			r.Total = ft
		}
	}
	r.Exec = r.Total
	if starts, ok := m.barrierRel[BarrierStart]; ok && len(starts) > 0 {
		if ends, ok2 := m.barrierRel[BarrierEnd]; ok2 && len(ends) > 0 {
			start := starts[0]
			end := ends[len(ends)-1]
			if end > start {
				r.Exec = end - start
			}
		}
	}
	if m.cfg.JitterPct != 0 {
		r.Exec = jitter(r.Exec, m.cfg.JitterPct, m.cfg.Seed)
	}
	return r
}

// jitter perturbs t by a deterministic pseudo-random factor in
// [1-pct/100, 1+pct/100].
func jitter(t sim.Ticks, pct float64, seed uint64) sim.Ticks {
	x := seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0,1)
	f := 1 + (pct/100)*(2*u-1)
	return sim.Ticks(float64(t) * f)
}
