package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
)

func TestDiskBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("missing"); ok {
		t.Fatal("hit on an empty directory")
	}
	b.Put("k1", machine.Result{Instructions: 42})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	res, ok := b.Get("k1")
	if !ok || res.Instructions != 42 {
		t.Fatalf("Get = (%v, %v)", res, ok)
	}
}

// TestDiskBackendSharesAcrossHandles is the two-process story: two
// handles on one directory (as two flashd replicas sharing a cache
// would hold) observe each other's writes with no coordination beyond
// the filesystem.
func TestDiskBackendSharesAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("shared", machine.Result{Instructions: 7})
	res, ok := b.Get("shared")
	if !ok || res.Instructions != 7 {
		t.Fatalf("second handle Get = (%v, %v)", res, ok)
	}
}

// openers are the three ways to put a memo backend on a directory.
var openers = map[string]func(dir string) (Backend, error){
	"disk":          func(dir string) (Backend, error) { return NewDiskBackend(dir) },
	"store":         func(dir string) (Backend, error) { return NewStore(dir) },
	"bounded-store": func(dir string) (Backend, error) { return NewBoundedStore(dir, 1<<20) },
}

// TestDiskBackendGarbageIsMiss pins the "never serve a partial result"
// contract: truncated, corrupt, or non-JSON entries are misses, whether
// the directory is read bare or through a Store, and the next Put
// repairs the entry for every other handle on the directory.
func TestDiskBackendGarbageIsMiss(t *testing.T) {
	cases := map[string][]byte{
		"truncated": []byte(`{"Instructions": 42`),
		"garbage":   []byte("\x00\x01\x02 not json"),
		"empty":     nil,
	}
	for name, open := range openers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for key, body := range cases {
				if err := os.WriteFile(filepath.Join(dir, key+".json"), body, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, ok := b.Get(key); ok {
					t.Fatalf("%s entry served as a hit", key)
				}
			}
			// A later Put repairs the entries, on disk and not just in b.
			other, err := NewDiskBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			for key := range cases {
				b.Put(key, machine.Result{Instructions: 9})
				for _, h := range []Backend{b, other} {
					if res, ok := h.Get(key); !ok || res.Instructions != 9 {
						t.Fatalf("repaired %s Get = (%v, %v)", key, res, ok)
					}
				}
			}
		})
	}
}

// TestDiskBackendConcurrentHandles hammers one directory through two
// handles under -race: interleaved Put/Get on overlapping keys must
// never yield a wrong or partial result — every hit decodes to a value
// some writer actually stored.
func TestDiskBackendConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	var wg sync.WaitGroup
	for w, h := range []*DiskBackend{a, b, a, b} {
		wg.Add(1)
		go func(w int, h *DiskBackend) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%02d", i%keys)
				// Every writer stores the same value per key, so any
				// winning rename is a correct read.
				h.Put(key, machine.Result{Instructions: uint64(i % keys)})
				if res, ok := h.Get(key); ok && res.Instructions != uint64(i%keys) {
					t.Errorf("worker %d: key %s = %d, want %d", w, key, res.Instructions, i%keys)
					return
				}
			}
		}(w, h)
	}
	wg.Wait()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	// No temp-file litter survives the storm.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("leftover non-entry file %s", e.Name())
		}
	}
}

// TestBoundedStoreConcurrentEviction drives a byte-bounded LRU store
// and an unbounded second store on the same directory (two flashd on
// one -cache-dir) with concurrent Get/Put well past the budget under
// -race: whichever store answers, a hit must be the value that was
// stored — from memory, from disk, or a clean miss while eviction
// churns — and the bounded store's footprint must respect the bound
// when the dust settles.
func TestBoundedStoreConcurrentEviction(t *testing.T) {
	dir := t.TempDir()
	// Small budget: a handful of entries fit, so eviction runs
	// constantly under the write load.
	const budget = 8 << 10
	bounded, err := NewBoundedStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{bounded, unbounded}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine, theirs := stores[g%2], stores[(g+1)%2]
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("g%dk%03d", g, i)
				mine.Put(key, machine.Result{Instructions: uint64(i)})
				// Reads of another goroutine's keys race with eviction
				// on purpose.
				other := fmt.Sprintf("g%dk%03d", (g+1)%6, i)
				for _, k := range []string{key, other} {
					for _, st := range []*Store{mine, theirs} {
						if res, ok := st.Get(k); ok && res.Instructions != uint64(i) {
							t.Errorf("key %s = %d, want %d", k, res.Instructions, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, st := range stores {
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if bounded.DiskBytes() > budget {
		t.Fatalf("footprint %d exceeds the %d budget after the storm", bounded.DiskBytes(), budget)
	}
	if bounded.Evictions() == 0 {
		t.Fatal("no evictions under a load far past the budget")
	}
}

// TestBoundedStoreEvictsOnRead is the deterministic form of the storm
// above: an unbounded store writes well past the budget, then a bounded
// store on the same directory — opened before the writes, so its
// inventory is empty — reads every entry back. No Put is ever issued on
// the bounded store, so reading alone must keep it inside its budget.
func TestBoundedStoreEvictsOnRead(t *testing.T) {
	dir := t.TempDir()
	const budget, n = 8 << 10, 60
	bounded, err := NewBoundedStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		writer.Put(fmt.Sprintf("k%03d", i), machine.Result{Instructions: uint64(i)})
	}
	for i := 0; i < n; i++ {
		res, ok := bounded.Get(fmt.Sprintf("k%03d", i))
		if !ok || res.Instructions != uint64(i) {
			t.Fatalf("k%03d = (%v, %v)", i, res.Instructions, ok)
		}
		if got := bounded.DiskBytes(); got > budget {
			t.Fatalf("after reading %d entries the footprint is %d, budget %d", i+1, got, budget)
		}
	}
	if bounded.Evictions() == 0 {
		t.Fatalf("read %d entries past an %d-byte budget with no eviction", n, budget)
	}
}

// TestEvictionSeenFromOtherStores: when a bounded store evicts an entry,
// a second store on the directory that had read it still answers from
// its memory, and one that had not sees a clean miss.
func TestEvictionSeenFromOtherStores(t *testing.T) {
	dir := t.TempDir()
	probe, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := probe.write("probe", machine.Result{Instructions: 1})
	a, err := NewBoundedStore(dir, 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	sawIt, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	neverSawIt, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("k1", machine.Result{Instructions: 1})
	if res, ok := sawIt.Get("k1"); !ok || res.Instructions != 1 {
		t.Fatalf("second store Get = (%v, %v)", res, ok)
	}
	a.Put("k2", machine.Result{Instructions: 2})
	a.Put("k3", machine.Result{Instructions: 3}) // evicts k1
	if _, ok := a.Get("k1"); ok {
		t.Fatal("k1 survived a 2-entry budget")
	}
	if res, ok := sawIt.Get("k1"); !ok || res.Instructions != 1 {
		t.Fatalf("store that had read k1 now answers (%v, %v)", res, ok)
	}
	if _, ok := neverSawIt.Get("k1"); ok {
		t.Fatal("evicted entry still readable from disk")
	}
	// A recompute by anyone puts it back for everyone.
	neverSawIt.Put("k1", machine.Result{Instructions: 1})
	if res, ok := a.Get("k1"); !ok || res.Instructions != 1 {
		t.Fatalf("re-put entry Get = (%v, %v)", res, ok)
	}
}

// TestStoreAndDiskBackendShareFormat pins that there is one entry
// format: whichever way two handles open a directory, each reads what
// the other wrote.
func TestStoreAndDiskBackendShareFormat(t *testing.T) {
	for an, openA := range openers {
		for bn, openB := range openers {
			dir := t.TempDir()
			a, err := openA(dir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := openB(dir)
			if err != nil {
				t.Fatal(err)
			}
			a.Put("from-a", machine.Result{Instructions: 11})
			if res, ok := b.Get("from-a"); !ok || res.Instructions != 11 {
				t.Fatalf("%s read of %s entry = (%v, %v)", bn, an, res, ok)
			}
			b.Put("from-b", machine.Result{Instructions: 22})
			if res, ok := a.Get("from-b"); !ok || res.Instructions != 22 {
				t.Fatalf("%s read of %s entry = (%v, %v)", an, bn, res, ok)
			}
		}
	}
}

// TestPoolRunsAgainstDiskBackend closes the seam: the pool memoizes
// through a DiskBackend exactly as through a Store, and a second pool
// on the same directory reuses the first pool's results.
func TestPoolRunsAgainstDiskBackend(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(1, disk)
	cfg := machine.Base(1, true)
	cfg.Name = "backend-test-machine"
	job := Job{Config: cfg, Prog: emitter.Program{
		Name:    "backend-test",
		Threads: 1,
		Body: func(th *emitter.Thread, _ any) {
			th.Barrier(emitter.BarrierStart)
			th.IntOps(500)
			th.Barrier(emitter.BarrierEnd)
		},
	}, Seed: 5}
	first, err := pool.Run(t.Context(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	disk2, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := New(1, disk2)
	out := pool2.RunAll(t.Context(), []Job{job})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if !out[0].Cached {
		t.Fatal("second pool on the shared directory recomputed")
	}
	if out[0].Result.Exec != first[0].Exec {
		t.Fatalf("cached Exec %d != computed Exec %d", out[0].Result.Exec, first[0].Exec)
	}
}
