package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// WebServeOpts parameterizes the web-serving OS stressor.
type WebServeOpts struct {
	// Requests is the request count per worker thread (default 192).
	Requests int
	// PagesPerReq is how many fresh 4 KB heap pages each request
	// touches (default 2): the fork/exec-style cold-page behavior —
	// every request faults new mappings in, so the kernel's page-fault
	// path dominates exactly as process-per-request servers do.
	PagesPerReq int
	// SyscallsPerReq is the system calls emitted per request
	// (default 6: accept, stat, open, two reads/writes, close).
	SyscallsPerReq int
	// Docs is the document-cache entry count (default 32).
	Docs int
	// ThinkOps is the user-mode integer work per request (default 64).
	ThinkOps int
	// Procs is the worker thread count.
	Procs int
}

func (o *WebServeOpts) norm() {
	if o.Requests == 0 {
		o.Requests = 192
	}
	if o.PagesPerReq == 0 {
		o.PagesPerReq = 2
	}
	if o.SyscallsPerReq == 0 {
		o.SyscallsPerReq = 6
	}
	if o.Docs == 0 {
		o.Docs = 32
	}
	if o.ThinkOps == 0 {
		o.ThinkOps = 64
	}
	if o.Procs == 0 {
		o.Procs = 1
	}
}

const (
	wsPageBytes = 4096
	wsDocLines  = 16 // 128-byte lines per cached document
	wsLineBytes = 128
	wsLockID    = 256 // doc-cache lock id base
	wsLocks     = 8
)

type webShared struct {
	heap  emitter.Region
	cache emitter.Region
}

// WebServe returns a web-serving-style OS stressor: each worker thread
// handles a stream of requests, and each request costs a batch of
// system calls, a handful of never-before-touched heap pages (the
// fork/exec allocation pattern — a cold page fault per page, the
// 4000-cycle kernel path), a read of a popular document from the shared
// cache, and an occasional locked cache refresh. Almost all of its time
// is OS model: SimOS charges every syscall and fault, Solo's backdoor
// makes them free, so the workload maximally separates the osmodel
// fidelity rungs (and, at 32-128 nodes, spreads its per-request pages
// by first touch).
func WebServe(o WebServeOpts) emitter.Program {
	o.norm()
	perThread := uint64(o.Requests) * uint64(o.PagesPerReq) * wsPageBytes
	return emitter.Program{
		Name:    "webserve",
		Variant: fmt.Sprintf("req=%d pages=%d sys=%d", o.Requests, o.PagesPerReq, o.SyscallsPerReq),
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &webShared{}
			sh.heap = as.AllocPageAligned("reqheap", perThread*uint64(o.Procs),
				emitter.Placement{Kind: emitter.PlaceFirstTouch})
			sh.cache = as.AllocPageAligned("doccache", uint64(o.Docs)*wsDocLines*wsLineBytes,
				emitter.Placement{Kind: emitter.PlaceInterleaved})
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			sh := shared.(*webShared)
			arena := sh.heap.Base + uint64(t.ID)*perThread

			// Warm the document cache cooperatively before the timed
			// section (chunked first reads).
			lo, hi := chunk(o.Docs*wsDocLines, t.ID, t.N)
			touchRegion(t, sh.cache.Base+uint64(lo)*wsLineBytes, uint64(hi-lo)*wsLineBytes, wsLineBytes)

			t.Barrier(emitter.BarrierStart)
			next := arena
			for req := 0; req < o.Requests; req++ {
				r := t.Rand()
				// Accept + request parse.
				t.Syscall(1) // accept
				t.Syscall(2) // read request
				t.IntOps(8)

				// Fork/exec-style heap growth: fresh pages, never
				// touched before, each store a cold page fault.
				for pg := 0; pg < o.PagesPerReq; pg++ {
					var prev emitter.Val
					for off := uint64(0); off < wsPageBytes; off += 1024 {
						t.Store(next+off, 64, prev, emitter.None)
						prev = t.IntALU(prev, emitter.None)
					}
					next += wsPageBytes
				}

				// Remaining kernel round trips of the request.
				for s := 2; s < o.SyscallsPerReq; s++ {
					t.Syscall(uint32(3 + s))
					t.IntOps(4)
				}

				// Serve a popular document out of the shared cache.
				doc := (r >> 8) % uint64(o.Docs)
				base := sh.cache.Base + doc*wsDocLines*wsLineBytes
				var p emitter.Val
				for l := 0; l < wsDocLines; l++ {
					p = t.Load(base+uint64(l)*wsLineBytes, 64, p, emitter.None)
				}

				// 1-in-16 requests refresh their document under the
				// cache lock (the writer side of the sharing pattern).
				if r%16 == 0 {
					lock := wsLockID + uint32(doc)%wsLocks
					t.Lock(lock)
					t.Store(base, 64, p, emitter.None)
					t.Store(base+wsLineBytes, 64, p, emitter.None)
					t.Unlock(lock)
				}

				// User-mode think time and the response write.
				t.IntOps(o.ThinkOps)
				t.Branch(p)
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}
