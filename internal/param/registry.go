package param

import (
	"strconv"
	"strings"

	"flashsim/internal/machine"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
)

// defaultOS returns the OS model the reference configuration carries;
// registered so os.* defaults are the meaningful SimOS values rather
// than zeros.
func defaultOS() osmodel.Config { return osmodel.DefaultSimOS() }

// Typed registration helpers. Each takes a field selector returning a
// pointer into the config, so Get, Set and app — the field's JSON form,
// appended without boxing it — share one accessor.

func boolParam(path, field, doc string, sel func(*machine.Config) *bool) {
	register(Param{
		Path: path, Kind: Bool, Doc: doc, Field: field,
		get: func(c *machine.Config) any { return *sel(c) },
		set: func(c *machine.Config, v any) { *sel(c) = v.(bool) },
		app: func(dst []byte, c *machine.Config) []byte { return strconv.AppendBool(dst, *sel(c)) },
	})
}

func intParam(path, field, unit, doc string, min, max float64, sel func(*machine.Config) *int) {
	register(Param{
		Path: path, Kind: Int, Unit: unit, Doc: doc, Min: min, Max: max, Field: field,
		get: func(c *machine.Config) any { return int64(*sel(c)) },
		set: func(c *machine.Config, v any) { *sel(c) = int(v.(int64)) },
		app: func(dst []byte, c *machine.Config) []byte { return strconv.AppendInt(dst, int64(*sel(c)), 10) },
	})
}

func u32Param(path, field, unit, doc string, min, max float64, sel func(*machine.Config) *uint32) {
	register(Param{
		Path: path, Kind: Uint, Unit: unit, Doc: doc, Min: min, Max: max, Field: field,
		get: func(c *machine.Config) any { return uint64(*sel(c)) },
		set: func(c *machine.Config, v any) { *sel(c) = uint32(v.(uint64)) },
		app: func(dst []byte, c *machine.Config) []byte { return strconv.AppendUint(dst, uint64(*sel(c)), 10) },
	})
}

func u64Param(path, field, unit, doc string, min, max float64, sel func(*machine.Config) *uint64) {
	register(Param{
		Path: path, Kind: Uint, Unit: unit, Doc: doc, Min: min, Max: max, Field: field,
		get: func(c *machine.Config) any { return *sel(c) },
		set: func(c *machine.Config, v any) { *sel(c) = v.(uint64) },
		app: func(dst []byte, c *machine.Config) []byte { return strconv.AppendUint(dst, *sel(c), 10) },
	})
}

func floatParam(path, field, unit, doc string, min, max float64, sel func(*machine.Config) *float64) {
	register(Param{
		Path: path, Kind: Float, Unit: unit, Doc: doc, Min: min, Max: max, Field: field,
		get: func(c *machine.Config) any { return *sel(c) },
		set: func(c *machine.Config, v any) { *sel(c) = v.(float64) },
		app: func(dst []byte, c *machine.Config) []byte { return appendFloat(dst, *sel(c)) },
	})
}

func enumParam(path, field, doc string, values []string, get func(*machine.Config) string, set func(*machine.Config, string)) {
	register(Param{
		Path: path, Kind: Enum, Doc: doc, Values: values, Field: field,
		get: func(c *machine.Config) any { return get(c) },
		set: func(c *machine.Config, v any) { set(c, v.(string)) },
		app: func(dst []byte, c *machine.Config) []byte { return strconv.AppendQuote(dst, get(c)) },
	})
}

// effNUMA returns the configuration's effective NUMA parameters: the
// pointer when set, otherwise the defaults (one shared read-only copy,
// so AppendCanonical allocates nothing per parameter). Reading through the
// effective value — and materializing the pointer only on Set —
// canonicalizes nil-vs-explicit-default so semantically identical
// configs encode (and therefore fingerprint) identically.
func effNUMA(c *machine.Config) *memsys.NUMAConfig {
	if c.NUMA != nil {
		return c.NUMA
	}
	return &numaDefaults
}

var numaDefaults, rtlOccupancies = memsys.DefaultNUMAConfig(0), magic.RTLOccupancies()

// numaParam registers one NUMA latency field. NUMAConfig.Nodes is
// deliberately not registered: machine.New forces it to Procs.
func numaParam(path, field, doc string, sel func(*memsys.NUMAConfig) *float64) {
	register(Param{
		Path: path, Kind: Float, Unit: "ns", Doc: doc, Min: 0, Max: 1e9, Field: field,
		get: func(c *machine.Config) any { return *sel(effNUMA(c)) },
		app: func(dst []byte, c *machine.Config) []byte { return appendFloat(dst, *sel(effNUMA(c))) },
		set: func(c *machine.Config, v any) {
			n := *effNUMA(c)
			*sel(&n) = v.(float64)
			c.NUMA = &n
		},
	})
}

// effMagic is effNUMA for the MAGIC occupancy table (nil = RTL values).
func effMagic(c *machine.Config) *magic.OccupancyTable {
	if c.MagicTable != nil {
		return c.MagicTable
	}
	return &rtlOccupancies
}

func init() {
	// Machine identity and scheduling.
	intParam("procs", "Procs", "", "processor (= node = thread) count",
		1, 1024, func(c *machine.Config) *int { return &c.Procs })
	intParam("quantum", "Quantum", "instrs", "instructions per scheduling slice",
		1, 1e9, func(c *machine.Config) *int { return &c.Quantum })
	floatParam("jitter_pct", "JitterPct", "%", "seeded run-to-run noise on the final time",
		0, 100, func(c *machine.Config) *float64 { return &c.JitterPct })
	u64Param("seed", "Seed", "", "jitter and branch-outcome PRNG seed",
		0, 1e18, func(c *machine.Config) *uint64 { return &c.Seed })

	// Processor model.
	enumParam("cpu.kind", "CPU", "processor model", []string{"mipsy", "mxs"},
		func(c *machine.Config) string { return c.CPU.String() },
		func(c *machine.Config, s string) {
			if s == "mipsy" {
				c.CPU = machine.CPUMipsy
			} else {
				c.CPU = machine.CPUMXS
			}
		})
	intParam("cpu.clock_mhz", "ClockMHz", "MHz", "core clock (must divide 900: 150/225/300)",
		1, 900, func(c *machine.Config) *int { return &c.ClockMHz })
	u32Param("cpu.restart_cycles", "RestartCycles", "cycles", "core-to-pins restart delay (snbench restart-time test)",
		0, 1000, func(c *machine.Config) *uint32 { return &c.RestartCycles })
	intParam("cpu.write_buffer_entries", "WriteBufferEntries", "", "store-buffer entries (Table 1: 4)",
		1, 64, func(c *machine.Config) *int { return &c.WriteBufferEntries })
	intParam("cpu.mshr_count", "MSHRCount", "", "outstanding-miss registers (Table 1: 4)",
		1, 64, func(c *machine.Config) *int { return &c.MSHRCount })
	boolParam("cpu.model_instr_latency", "ModelInstrLatency", "model functional-unit latencies in Mipsy (mul 5, div 19, FP)",
		func(c *machine.Config) *bool { return &c.ModelInstrLatency })

	// OS model.
	enumParam("os.kind", "OS.Kind", "operating-system model", []string{"solo", "simos"},
		func(c *machine.Config) string { return c.OS.Kind.String() },
		func(c *machine.Config, s string) {
			if s == "solo" {
				c.OS.Kind = osmodel.Solo
			} else {
				c.OS.Kind = osmodel.SimOS
			}
		})
	intParam("os.tlb.entries", "OS.TLBEntries", "", "per-CPU TLB entries (R10000: 64; SimOS only)",
		0, 4096, func(c *machine.Config) *int { return &c.OS.TLBEntries })
	u32Param("os.tlb.handler_cycles", "OS.TLBHandlerCycles", "cycles", "TLB refill cost (untuned 25/35, hardware 65)",
		0, 1e6, func(c *machine.Config) *uint32 { return &c.OS.TLBHandlerCycles })
	u32Param("os.page_fault_cycles", "OS.PageFaultCycles", "cycles", "kernel cost of a cold page fault (SimOS)",
		0, 1e9, func(c *machine.Config) *uint32 { return &c.OS.PageFaultCycles })
	u32Param("os.syscall_cycles", "OS.SyscallCycles", "cycles", "kernel entry/exit cost of a syscall (SimOS)",
		0, 1e9, func(c *machine.Config) *uint32 { return &c.OS.SyscallCycles })

	// Memory-system model selection.
	enumParam("mem.kind", "Mem", "memory-system simulator", []string{"flashlite", "numa"},
		func(c *machine.Config) string { return c.Mem.String() },
		func(c *machine.Config, s string) {
			if s == "flashlite" {
				c.Mem = machine.MemFlashLite
			} else {
				c.Mem = machine.MemNUMA
			}
		})

	// FlashLite timing constants (the Calibrator's Table 3 knobs).
	flashFloat := func(path, field, doc string, sel func(*memsys.FlashTiming) *float64) {
		floatParam(path, field, "ns", doc, 0, 1e9,
			func(c *machine.Config) *float64 { return sel(&c.FlashTiming) })
	}
	flashFloat("flash.bus_request_ns", "FlashTiming.BusRequestNS", "processor-to-MAGIC bus leg",
		func(t *memsys.FlashTiming) *float64 { return &t.BusRequestNS })
	flashFloat("flash.bus_reply_ns", "FlashTiming.BusReplyNS", "MAGIC-to-processor bus leg",
		func(t *memsys.FlashTiming) *float64 { return &t.BusReplyNS })
	flashFloat("flash.router_ns", "FlashTiming.RouterNS", "per-router pass-through",
		func(t *memsys.FlashTiming) *float64 { return &t.RouterNS })
	flashFloat("flash.inbox_ns", "FlashTiming.InboxNS", "network-to-MAGIC interface crossing",
		func(t *memsys.FlashTiming) *float64 { return &t.InboxNS })
	flashFloat("flash.outbox_ns", "FlashTiming.OutboxNS", "MAGIC-to-network interface crossing",
		func(t *memsys.FlashTiming) *float64 { return &t.OutboxNS })
	flashFloat("flash.intervention_ns", "FlashTiming.InterventionNS", "dirty-line extraction at the owner CPU",
		func(t *memsys.FlashTiming) *float64 { return &t.InterventionNS })

	// Generic NUMA model (latency-only; its one queueing effect is
	// memory banks).
	numaParam("numa.controller_ns", "NUMA.ControllerNS", "directory-controller pass-through latency",
		func(n *memsys.NUMAConfig) *float64 { return &n.ControllerNS })
	numaParam("numa.memory_ns", "NUMA.MemoryNS", "DRAM access latency for a full line",
		func(n *memsys.NUMAConfig) *float64 { return &n.MemoryNS })
	numaParam("numa.hop_ns", "NUMA.HopNS", "per-hop network latency",
		func(n *memsys.NUMAConfig) *float64 { return &n.HopNS })
	numaParam("numa.per_byte_ns", "NUMA.PerByteNS", "serialization time per byte",
		func(n *memsys.NUMAConfig) *float64 { return &n.PerByteNS })
	numaParam("numa.intervention_ns", "NUMA.InterventionNS", "dirty-line extraction cost at an owner",
		func(n *memsys.NUMAConfig) *float64 { return &n.InterventionNS })
	numaParam("numa.bus_ns", "NUMA.BusNS", "processor-controller bus latency, each way",
		func(n *memsys.NUMAConfig) *float64 { return &n.BusNS })
	register(Param{
		Path: "numa.memory_banks", Kind: Int, Doc: "contended memory banks per node",
		Min: 1, Max: 64, Field: "NUMA.MemoryBanks",
		get: func(c *machine.Config) any { return int64(effNUMA(c).MemoryBanks) },
		app: func(dst []byte, c *machine.Config) []byte {
			return strconv.AppendInt(dst, int64(effNUMA(c).MemoryBanks), 10)
		},
		set: func(c *machine.Config, v any) {
			n := *effNUMA(c)
			n.MemoryBanks = int(v.(int64))
			c.NUMA = &n
		},
	})

	// MAGIC protocol-processor occupancies (75 MHz system cycles; the
	// Verilog-extracted handler costs). nil table = RTL values.
	for h := magic.Handler(0); h < magic.NumHandlers; h++ {
		h := h
		register(Param{
			Path: "magic.occupancy." + strings.ReplaceAll(h.String(), "-", "_"),
			Kind: Uint, Unit: "syscycles",
			Doc: "PP occupancy of the " + h.String() + " handler",
			Min: 0, Max: 1e6,
			Field: magicField(int(h)),
			get:   func(c *machine.Config) any { return uint64(effMagic(c)[h]) },
			app:   func(dst []byte, c *machine.Config) []byte { return strconv.AppendUint(dst, uint64(effMagic(c)[h]), 10) },
			set: func(c *machine.Config, v any) {
				t := *effMagic(c)
				t[h] = uint32(v.(uint64))
				c.MagicTable = &t
			},
		})
	}

	// Cache geometry and processor-side latencies.
	u64Param("l1d.size_bytes", "L1D.Size", "bytes", "primary data cache size",
		1<<10, 1<<30, func(c *machine.Config) *uint64 { return &c.L1D.Size })
	u64Param("l1d.line_bytes", "L1D.LineSize", "bytes", "primary data cache line size",
		8, 1<<12, func(c *machine.Config) *uint64 { return &c.L1D.LineSize })
	intParam("l1d.ways", "L1D.Ways", "", "primary data cache associativity",
		1, 32, func(c *machine.Config) *int { return &c.L1D.Ways })
	u32Param("l1d.hit_cycles", "L1HitCycles", "cycles", "primary-cache hit latency",
		0, 100, func(c *machine.Config) *uint32 { return &c.L1HitCycles })
	u64Param("l2.size_bytes", "L2.Size", "bytes", "secondary cache size",
		1<<10, 1<<32, func(c *machine.Config) *uint64 { return &c.L2.Size })
	u64Param("l2.line_bytes", "L2.LineSize", "bytes", "secondary cache line size",
		8, 1<<12, func(c *machine.Config) *uint64 { return &c.L2.LineSize })
	intParam("l2.ways", "L2.Ways", "", "secondary cache associativity",
		1, 32, func(c *machine.Config) *int { return &c.L2.Ways })
	u32Param("l2.hit_cycles", "L2HitCycles", "cycles", "secondary-cache hit latency",
		0, 1000, func(c *machine.Config) *uint32 { return &c.L2HitCycles })
	boolParam("l2.model_interface_occupancy", "ModelL2InterfaceOccupancy",
		"model secondary-cache interface occupancy during line transfers",
		func(c *machine.Config) *bool { return &c.ModelL2InterfaceOccupancy })
	floatParam("l2.transfer_ns", "L2TransferNS", "ns", "secondary-cache interface line-transfer occupancy",
		0, 1e6, func(c *machine.Config) *float64 { return &c.L2TransferNS })

	// MXS fidelity knobs and injectable historical bugs.
	boolParam("mxs.model_address_interlocks", "MXS.ModelAddressInterlocks",
		"charge address-generation interlocks (omission makes MXS 20-30% fast)",
		func(c *machine.Config) *bool { return &c.MXS.ModelAddressInterlocks })
	u32Param("mxs.interlock_cycles", "MXS.InterlockCycles", "cycles", "address-interlock charge",
		0, 100, func(c *machine.Config) *uint32 { return &c.MXS.InterlockCycles })
	u32Param("mxs.interlock_max_dist", "MXS.InterlockMaxDist", "instrs", "producer distance that triggers an interlock",
		0, 100, func(c *machine.Config) *uint32 { return &c.MXS.InterlockMaxDist })
	boolParam("mxs.bug_fast_issue", "MXS.BugFastIssue", "re-enable the historical fast-issue pipeline bug",
		func(c *machine.Config) *bool { return &c.MXS.BugFastIssue })
	boolParam("mxs.bug_cache_op_stall", "MXS.BugCacheOpStall", "re-enable the historical CACHE-op stall bug",
		func(c *machine.Config) *bool { return &c.MXS.BugCacheOpStall })
	u32Param("mxs.cache_op_stall_cycles", "MXS.CacheOpStallCycles", "cycles", "stall length of the CACHE-op bug",
		0, 1e8, func(c *machine.Config) *uint32 { return &c.MXS.CacheOpStallCycles })

	// The Class column: every path that separates a study simulator
	// from the hardware model, or that a historical defect flips.
	for class, paths := range map[ErrorClass][]string{
		Bug: {"mxs.bug_fast_issue", "mxs.bug_cache_op_stall", "mxs.cache_op_stall_cycles"},
		Omission: {"cpu.kind", "cpu.model_instr_latency", "os.kind", "os.tlb.entries",
			"os.page_fault_cycles", "os.syscall_cycles"},
		LackOfDetail: {"cpu.clock_mhz", "os.tlb.handler_cycles", "mem.kind",
			"l2.model_interface_occupancy", "l2.transfer_ns",
			"mxs.model_address_interlocks", "mxs.interlock_cycles", "mxs.interlock_max_dist",
			"flash.bus_request_ns", "flash.bus_reply_ns", "flash.router_ns",
			"flash.inbox_ns", "flash.outbox_ns", "flash.intervention_ns"},
	} {
		for _, path := range paths {
			byPath[path].Class = class
		}
	}
}

// magicField names the Go field path of one MAGIC occupancy slot.
func magicField(i int) string { return "MagicTable[" + strconv.Itoa(i) + "]" }
