package workload

import (
	"fmt"

	"flashsim/internal/apps"
	"flashsim/internal/emitter"
	"flashsim/internal/proto"
	"flashsim/internal/snbench"
)

// caseNames enumerates the protocol-case parameter values of
// snbench.dependent-loads.
func caseNames() []string {
	names := make([]string, 0, int(proto.NumCases))
	for c := proto.Case(0); c < proto.NumCases; c++ {
		names = append(names, c.String())
	}
	return names
}

// ParseCase resolves a protocol-case name validated by the registry's
// enum (so a miss here is a programming error).
func ParseCase(name string) proto.Case {
	for c := proto.Case(0); c < proto.NumCases; c++ {
		if c.String() == name {
			return c
		}
	}
	panic(fmt.Sprintf("workload: unvalidated protocol case %q", name))
}

func init() {
	Register(Definition{
		Name:        "fft",
		Description: "SPLASH-2 radix-sqrt(n) FFT with blocked transposes",
		Params: []Param{
			{Name: "logn", Kind: Int, Usage: "log2 of the point count", Default: 16, Quick: 12, Min: 4, Max: 26},
			{Name: "tlb_blocked", Kind: Bool, Usage: "block the transpose for the TLB (the paper's fix)", Default: true},
			{Name: "prefetch", Kind: Bool, Usage: "issue software prefetches", Default: true},
		},
		Label: func(v Values) string {
			if v.Bool("tlb_blocked") {
				return "FFT"
			}
			return "FFT(cache-blk)"
		},
		Build: func(v Values, procs int) emitter.Program {
			return apps.FFT(apps.FFTOpts{
				LogN:       v.Int("logn"),
				Procs:      procs,
				TLBBlocked: v.Bool("tlb_blocked"),
				Prefetch:   v.Bool("prefetch"),
			})
		},
	})

	Register(Definition{
		Name:        "radix",
		Description: "SPLASH-2 radix sort",
		Params: []Param{
			{Name: "keys", Kind: Int, Usage: "key count", Default: 256 << 10, Quick: 32 << 10, Min: 1 << 10, Max: 1 << 26},
			{Name: "radix", Kind: Int, Usage: "sort radix", Default: 256, Min: 2, Max: 4096},
			{Name: "unplaced", Kind: Bool, Usage: "home all data on node 0 (Figure 7)", Default: false},
			{Name: "verify", Kind: Bool, Usage: "emit a sortedness-check pass after the sort", Default: false},
		},
		Label: func(v Values) string {
			name := fmt.Sprintf("Radix(r=%d)", v.Int("radix"))
			if v.Bool("unplaced") {
				name += "-unplaced"
			}
			return name
		},
		Build: func(v Values, procs int) emitter.Program {
			return apps.Radix(apps.RadixOpts{
				Keys:     v.Int("keys"),
				Radix:    v.Int("radix"),
				Procs:    procs,
				Unplaced: v.Bool("unplaced"),
				Verify:   v.Bool("verify"),
			})
		},
	})

	Register(Definition{
		Name:        "lu",
		Description: "SPLASH-2 blocked dense LU factorization",
		Params: []Param{
			{Name: "n", Kind: Int, Usage: "matrix dimension", Default: 160, Quick: 96, Min: 16, Max: 4096},
			{Name: "prefetch", Kind: Bool, Usage: "issue software prefetches", Default: true},
		},
		Label: func(Values) string { return "LU" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.LU(apps.LUOpts{
				N:        v.Int("n"),
				Procs:    procs,
				Prefetch: v.Bool("prefetch"),
			})
		},
	})

	Register(Definition{
		Name:        "ocean",
		Description: "SPLASH-2 Ocean multigrid current simulation",
		Params: []Param{
			{Name: "n", Kind: Int, Usage: "grid dimension", Default: 128, Quick: 64, Min: 16, Max: 2048},
			{Name: "grids", Kind: Int, Usage: "grid count", Default: 14, Quick: 8, Min: 3, Max: 64},
			{Name: "iters", Kind: Int, Usage: "time steps", Default: 4, Quick: 2, Min: 1, Max: 256},
			{Name: "prefetch", Kind: Bool, Usage: "issue software prefetches", Default: true},
		},
		Label: func(Values) string { return "Ocean" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.Ocean(apps.OceanOpts{
				N:        v.Int("n"),
				Grids:    v.Int("grids"),
				Iters:    v.Int("iters"),
				Procs:    procs,
				Prefetch: v.Bool("prefetch"),
			})
		},
	})

	Register(Definition{
		Name:        "cachemgmt",
		Description: "cache-management stressor (flush/writeback-hint heavy)",
		Params: []Param{
			{Name: "lines", Kind: Int, Usage: "working-set cache lines", Default: 256, Quick: 64, Min: 8, Max: 1 << 20},
			{Name: "rounds", Kind: Int, Usage: "flush/reload rounds", Default: 8, Quick: 2, Min: 1, Max: 1024},
		},
		Label: func(Values) string { return "CacheMgmt" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.CacheMgmt(apps.CacheMgmtOpts{
				Lines:  v.Int("lines"),
				Rounds: v.Int("rounds"),
				Procs:  procs,
			})
		},
	})

	Register(Definition{
		Name:        "barnes",
		Description: "Barnes-Hut octree n-body (lock-protected tree insert, multipole force walk)",
		Params: []Param{
			{Name: "bodies", Kind: Int, Usage: "particle count", Default: 1024, Quick: 256, Min: 16, Max: 1 << 20},
			{Name: "steps", Kind: Int, Usage: "time steps", Default: 4, Quick: 2, Min: 1, Max: 256},
			{Name: "theta_pct", Kind: Int, Usage: "opening angle threshold x100", Default: 50, Min: 1, Max: 200},
		},
		Label: func(Values) string { return "Barnes" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.Barnes(apps.BarnesOpts{
				Bodies:   v.Int("bodies"),
				Steps:    v.Int("steps"),
				ThetaPct: v.Int("theta_pct"),
				Procs:    procs,
			})
		},
	})

	Register(Definition{
		Name:        "gups",
		Description: "GUPS-style random-update hotspot (read-xor-write at random table words)",
		Params: []Param{
			{Name: "log_table", Kind: Int, Usage: "log2 of the table length in words", Default: 18, Quick: 14, Min: 6, Max: 28},
			{Name: "updates", Kind: Int, Usage: "updates per thread", Default: 32768, Quick: 4096, Min: 64, Max: 1 << 26},
			{Name: "hot_pct", Kind: Int, Usage: "percent of updates hitting the hot 1/64 slice (0 = uniform)", Default: 25, Min: 0, Max: 100},
			{Name: "unplaced", Kind: Bool, Usage: "home the table on node 0 instead of first touch", Default: false},
		},
		Label: func(v Values) string {
			if v.Bool("unplaced") {
				return "GUPS-unplaced"
			}
			return "GUPS"
		},
		Build: func(v Values, procs int) emitter.Program {
			return apps.GUPS(apps.GUPSOpts{
				LogTable: v.Int("log_table"),
				Updates:  v.Int("updates"),
				HotPct:   v.Int("hot_pct"),
				Procs:    procs,
				Unplaced: v.Bool("unplaced"),
			})
		},
	})

	Register(Definition{
		Name:        "oltp",
		Description: "OLTP-style pointer-chasing transaction mix (index walk, version chains, bucket locks)",
		Params: []Param{
			{Name: "txns", Kind: Int, Usage: "transactions per thread", Default: 1024, Quick: 192, Min: 8, Max: 1 << 24},
			{Name: "rows", Kind: Int, Usage: "table rows", Default: 32768, Quick: 4096, Min: 256, Max: 1 << 24},
			{Name: "ops", Kind: Int, Usage: "row operations per transaction", Default: 8, Min: 1, Max: 256},
			{Name: "read_pct", Kind: Int, Usage: "percent of operations that read (rest write under lock)", Default: 80, Min: 0, Max: 100},
			{Name: "skew_pct", Kind: Int, Usage: "percent of operations on the popular 1/64 keys", Default: 60, Min: 0, Max: 100},
		},
		Label: func(Values) string { return "OLTP" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.OLTP(apps.OLTPOpts{
				Txns:    v.Int("txns"),
				Rows:    v.Int("rows"),
				Ops:     v.Int("ops"),
				ReadPct: v.Int("read_pct"),
				SkewPct: v.Int("skew_pct"),
				Procs:   procs,
			})
		},
	})

	Register(Definition{
		Name:        "webserve",
		Description: "web-serving OS stressor (syscall batches, cold per-request pages, shared doc cache)",
		Params: []Param{
			{Name: "requests", Kind: Int, Usage: "requests per worker thread", Default: 192, Quick: 48, Min: 4, Max: 1 << 20},
			{Name: "pages_per_req", Kind: Int, Usage: "fresh heap pages per request", Default: 2, Min: 1, Max: 64},
			{Name: "syscalls_per_req", Kind: Int, Usage: "system calls per request", Default: 6, Min: 2, Max: 64},
			{Name: "docs", Kind: Int, Usage: "document-cache entries", Default: 32, Min: 1, Max: 1 << 16},
			{Name: "think_ops", Kind: Int, Usage: "user-mode integer ops per request", Default: 64, Min: 1, Max: 1 << 16},
		},
		Label: func(Values) string { return "WebServe" },
		Build: func(v Values, procs int) emitter.Program {
			return apps.WebServe(apps.WebServeOpts{
				Requests:       v.Int("requests"),
				PagesPerReq:    v.Int("pages_per_req"),
				SyscallsPerReq: v.Int("syscalls_per_req"),
				Docs:           v.Int("docs"),
				ThinkOps:       v.Int("think_ops"),
				Procs:          procs,
			})
		},
	})

	Register(Definition{
		Name:        "snbench.dependent-loads",
		Description: "calibration: dependent-load latency for one protocol case (4 procs, fixed)",
		Params: []Param{
			{Name: "case", Kind: String, Usage: "protocol case", Default: proto.RemoteClean.String(), Enum: caseNames()},
		},
		Build: func(v Values, _ int) emitter.Program {
			return snbench.DependentLoads(ParseCase(v.Str("case")))
		},
	})

	Register(Definition{
		Name:        "snbench.tlb-timer",
		Description: "calibration: TLB-miss handler cost timer (1 proc, fixed)",
		Build:       func(Values, int) emitter.Program { return snbench.TLBTimer() },
	})

	Register(Definition{
		Name:        "snbench.restart",
		Description: "calibration: back-to-back independent-load throughput (1 proc, fixed)",
		Params: []Param{
			{Name: "lines", Kind: Int, Usage: "stream length in cache lines", Default: snbench.RestartLines, Min: 8, Max: 1 << 22},
		},
		Build: func(v Values, _ int) emitter.Program {
			return snbench.Restart(v.Int("lines"))
		},
	})
}
