// Package machine composes a complete simulated FLASH system: per-node
// processor model, cache hierarchy, TLB, OS model, and a shared memory
// system (FlashLite or NUMA), driven by a deterministic event loop with
// semantic barriers and locks.
//
// A machine.Config is "a simulator" in the paper's sense: Solo-Mipsy at
// 225 MHz, SimOS-MXS, the hardware itself — all are Configs differing in
// processor model, OS model, memory-system model, and fidelity knobs.
package machine

import (
	"fmt"

	"flashsim/internal/cache"
	"flashsim/internal/cpu/mxs"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
)

// CPUKind selects the processor model.
type CPUKind uint8

const (
	// CPUMipsy is the single-issue in-order model.
	CPUMipsy CPUKind = iota
	// CPUMXS is the four-issue out-of-order model.
	CPUMXS
)

// String names the CPU kind.
func (k CPUKind) String() string {
	if k == CPUMipsy {
		return "mipsy"
	}
	return "mxs"
}

// MemKind selects the memory-system simulator.
type MemKind uint8

const (
	// MemFlashLite is the detailed model.
	MemFlashLite MemKind = iota
	// MemNUMA is the generic latency-only model.
	MemNUMA
)

// String names the memory-system kind.
func (k MemKind) String() string {
	if k == MemFlashLite {
		return "flashlite"
	}
	return "numa"
}

// Config fully describes one simulator (or the hardware reference).
type Config struct {
	// Name labels the configuration in reports ("SimOS-Mipsy 225MHz").
	Name string
	// Procs is the number of processors (= nodes = program threads).
	Procs int
	// CPU selects the processor model; ClockMHz its clock (must divide
	// 900: 150, 225, 300 in the study).
	CPU      CPUKind
	ClockMHz int
	// OS selects and parameterizes the OS model.
	OS osmodel.Config
	// Mem selects the memory-system simulator.
	Mem MemKind
	// FlashTiming parameterizes FlashLite (ignored for NUMA).
	FlashTiming memsys.FlashTiming
	// NUMA parameterizes the NUMA model (nil = defaults).
	NUMA *memsys.NUMAConfig
	// MagicTable overrides protocol-processor occupancies (nil = RTL).
	MagicTable *magic.OccupancyTable

	// L1D and L2 are the data-cache geometries.
	L1D cache.Config
	L2  cache.Config
	// L1HitCycles, L2HitCycles, RestartCycles are processor-side
	// latencies in CPU cycles. RestartCycles is the core-to-pins
	// restart delay the paper tuned with snbench's restart-time test.
	L1HitCycles   uint32
	L2HitCycles   uint32
	RestartCycles uint32
	// WriteBufferEntries and MSHRCount size the store buffer (4) and
	// outstanding-miss file (4, Table 1).
	WriteBufferEntries int
	MSHRCount          int
	// ModelL2InterfaceOccupancy enables the secondary-cache interface
	// occupancy effect; L2TransferNS is the line-transfer occupancy.
	ModelL2InterfaceOccupancy bool
	L2TransferNS              float64

	// ModelInstrLatency enables functional-unit latencies in Mipsy.
	ModelInstrLatency bool
	// MXS carries the out-of-order fidelity knobs and historical bugs.
	MXS mxs.Fidelity

	// Sampling configures sampled simulation of a trace replay:
	// functional fast-forward alternating with detailed windows on an
	// instruction-count schedule. The zero value (disabled) is full
	// detail; an execution-driven run refuses an enabled schedule. Only
	// Go callers reach it: it is in no registry path, no CLI flag and no
	// fingerprint, so a pool with a store refuses a job that enables it.
	// It goes with the frozen benchmark's sampled replays (ROADMAP 9(e)).
	Sampling SamplingConfig

	// JitterPct adds seeded run-to-run noise to the final time (the
	// hardware reference uses ~0.5%; simulators use 0).
	JitterPct float64
	// Seed perturbs jitter and branch-outcome PRNGs.
	Seed uint64
	// Quantum bounds instructions per scheduling slice.
	Quantum int

	// CheckCoherence verifies the directory's protocol invariants after
	// every operation (see proto/invariants.go). A verification flag,
	// not a timing parameter: it cannot change any result, so it is
	// deliberately excluded from the param registry and the run
	// fingerprints.
	CheckCoherence bool

	// Deprecated: ignored. Every run executes on one goroutine; the
	// field stays only while the frozen benchmark still writes it.
	Shards int
}

// SamplingConfig parameterizes sampled replay. When Enabled, each
// node's replayed stream is split into repeating periods of Period
// instructions: the first Window instructions of each period execute
// on the replay core, the rest fast-forward functionally at a
// flat one cycle per instruction with no core or memory timing. Phase
// shifts the first window into the stream (Phase functional
// instructions run before detailed execution starts), which lets
// repeated runs sample different program regions deterministically.
//
// Warmup marks the leading instructions of every detailed window as
// state-settling time: they execute at full detail (warming MSHRs,
// write buffers, and in-flight timing state) but are accounted
// separately in Result.Sampling so error analysis can distinguish
// settled measurement from warmup.
//
// ColdState selects the cold-warmup variant: when false (the default
// policy), functional fast-forward still performs every translation,
// cache access, and directory transition — so TLBs, both cache levels,
// and the directory stay warm across skipped regions — and only the
// timing is elided. When true, fast-forwarded instructions touch no
// machine state at all, and each detailed window starts against
// whatever state the previous window left: the measurable cost of cold
// warmup, one of the error sources the sampling experiment reports.
type SamplingConfig struct {
	Enabled bool
	// Period is the schedule's cycle length in instructions.
	Period uint64
	// Window is the detailed-instruction count per period (includes
	// Warmup). Must satisfy 0 < Window <= Period.
	Window uint64
	// Warmup is the leading portion of each window accounted as
	// warmup. Must satisfy Warmup <= Window.
	Warmup uint64
	// Phase is the functional-instruction offset of the first window.
	Phase uint64
	// ColdState disables state warming during fast-forward.
	ColdState bool
}

// DefaultSampling returns the default sampled-simulation schedule:
// 2k-instruction detailed windows (the leading quarter warmup) every
// 20k instructions, warm-state fast-forward.
func DefaultSampling() SamplingConfig {
	return SamplingConfig{
		Enabled: true,
		Period:  20_000,
		Window:  2_000,
		Warmup:  500,
	}
}

// validate checks the sampling schedule.
func (s SamplingConfig) validate(name string) error {
	if !s.Enabled {
		return nil
	}
	if s.Period == 0 {
		return fmt.Errorf("machine %q: sampling period must be positive", name)
	}
	if s.Window == 0 || s.Window > s.Period {
		return fmt.Errorf("machine %q: sampling window %d outside (0, period %d]", name, s.Window, s.Period)
	}
	if s.Warmup > s.Window {
		return fmt.Errorf("machine %q: sampling warmup %d exceeds window %d", name, s.Warmup, s.Window)
	}
	return nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("machine %q: Procs must be positive", c.Name)
	}
	if err := c.Sampling.validate(c.Name); err != nil {
		return err
	}
	if c.ClockMHz <= 0 || 900%c.ClockMHz != 0 {
		return fmt.Errorf("machine %q: clock %d MHz does not divide 900", c.Name, c.ClockMHz)
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	if c.L2.LineSize < c.L1D.LineSize {
		return fmt.Errorf("machine %q: L2 line (%d) smaller than L1 line (%d)", c.Name, c.L2.LineSize, c.L1D.LineSize)
	}
	return nil
}

// Colors returns the number of page colors of the secondary cache.
func (c Config) Colors() uint32 { return uint32(c.L2.WaySize() / 4096) }

// FullScaleCaches returns the Table 1 cache geometry: 32 KB L1 data
// cache with 32-byte lines and a 2 MB secondary cache with 128-byte
// lines (both 2-way here).
func FullScaleCaches() (l1d, l2 cache.Config) {
	l1d = cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Ways: 2}
	l2 = cache.Config{Name: "L2", Size: 2 << 20, LineSize: 128, Ways: 2}
	return
}

// ScaledCaches returns the 1/16-scale geometry used for laptop-scale
// experiment runs (problem sizes are scaled by the same factor so
// working-set/cache ratios are preserved; see EXPERIMENTS.md).
func ScaledCaches() (l1d, l2 cache.Config) {
	l1d = cache.Config{Name: "L1D", Size: 8 << 10, LineSize: 32, Ways: 2}
	l2 = cache.Config{Name: "L2", Size: 128 << 10, LineSize: 128, Ways: 2}
	return
}

// Base returns a Config with the shared FLASH parameters filled in
// (caches, buffers, processor-side latencies) and no simulator identity:
// callers set CPU/OS/Mem/fidelity. scaled selects ScaledCaches.
func Base(procs int, scaled bool) Config {
	l1d, l2 := FullScaleCaches()
	if scaled {
		l1d, l2 = ScaledCaches()
	}
	return Config{
		Procs:              procs,
		ClockMHz:           150,
		L1D:                l1d,
		L2:                 l2,
		L1HitCycles:        1,
		L2HitCycles:        10,
		RestartCycles:      2,
		WriteBufferEntries: 4,
		MSHRCount:          4,
		L2TransferNS:       150,
		FlashTiming:        memsys.TrueTiming(),
		Quantum:            200,
	}
}
