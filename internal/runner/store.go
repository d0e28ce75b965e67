package runner

import (
	"container/list"
	"sync"

	"flashsim/internal/machine"
)

// Store memoizes simulation results by fingerprint. It is an in-memory
// map; with a directory it wraps a DiskBackend, writing every result
// through and reading through on a memory miss, so a later process (or
// another process sharing the directory) reuses runs an earlier one
// already paid for — `flashsim validate figure3` rereads the reference
// runs `validate figure1` produced, and the Calibrator's repeated
// snbench probes hit cache across simulator configurations. The file
// format, validation and atomic write are all DiskBackend's.
//
// A persistent store may be byte-bounded (NewBoundedStore, the CLIs'
// -cache-max-bytes): when the on-disk footprint of the entries this
// store has seen exceeds the bound, the least-recently-accessed are
// evicted — file and memory entry together, so an evicted key is a
// clean miss everywhere — until the footprint fits. Access order is
// updated by both hits and writes, and an existing cache directory is
// inventoried at open (ordered by file modification time), so a daemon
// restarted over an old cache evicts sensibly from the start.
//
// A Store is safe for concurrent use. Disk writes are best-effort: the
// first I/O error is retained (Err) and the store keeps serving from
// memory.
type Store struct {
	disk     *DiskBackend // nil = memory only
	maxBytes int64

	mu  sync.RWMutex
	mem map[string]machine.Result

	// LRU bookkeeping, live only when maxBytes > 0.
	// lru front = most recently accessed; elem indexes keys into it.
	lru       *list.List
	elem      map[string]*list.Element
	diskBytes int64
	evictions int64
}

// lruEntry is one tracked on-disk entry.
type lruEntry struct {
	key  string
	size int64
}

// NewStore returns a store rooted at dir; dir == "" keeps the store
// purely in-memory. The directory is created if missing.
func NewStore(dir string) (*Store, error) { return NewBoundedStore(dir, 0) }

// NewBoundedStore is NewStore with an on-disk byte budget; maxBytes <= 0
// means unbounded, and a memory-only store (dir == "") has no footprint
// to bound. Entries already present under dir are counted against the
// budget (and evicted oldest-first if it is already exceeded).
func NewBoundedStore(dir string, maxBytes int64) (*Store, error) {
	s := &Store{mem: make(map[string]machine.Result)}
	if dir == "" {
		return s, nil
	}
	disk, err := NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	s.disk = disk
	if maxBytes > 0 {
		s.maxBytes = maxBytes
		s.lru = list.New()
		s.elem = make(map[string]*list.Element)
		for _, e := range disk.entries() {
			s.touch(e.key, e.size)
		}
		s.evict()
	}
	return s, nil
}

// Dir returns the on-disk root ("" for a memory-only store).
func (s *Store) Dir() string {
	if s.disk == nil {
		return ""
	}
	return s.disk.Dir()
}

// MaxBytes returns the on-disk budget (0 for unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// Get returns the memoized result for key, consulting memory first and
// then disk. A disk hit is promoted into memory. Either hit refreshes
// the key's access recency in a bounded store, and a disk hit counts the
// entry against the budget, so a store that only reads what another
// process wrote stays inside its bound too.
func (s *Store) Get(key string) (machine.Result, bool) {
	s.mu.RLock()
	res, ok := s.mem[key]
	s.mu.RUnlock()
	if ok {
		if s.maxBytes > 0 {
			s.mu.Lock()
			s.touch(key, -1)
			s.mu.Unlock()
		}
		return res, true
	}
	if s.disk == nil {
		return machine.Result{}, false
	}
	res, size, ok := s.disk.read(key)
	if !ok {
		return machine.Result{}, false
	}
	s.mu.Lock()
	s.mem[key] = res
	if s.maxBytes > 0 {
		s.touch(key, size)
		s.evict()
	}
	s.mu.Unlock()
	return res, true
}

// Put memoizes a result under key, writing through to disk when the
// store is persistent and evicting least-recently-accessed entries
// when a bounded store overflows. A failed write still memoizes in
// memory.
func (s *Store) Put(key string, res machine.Result) {
	size := int64(-1)
	if s.disk != nil {
		size = s.disk.write(key, res)
	}
	s.mu.Lock()
	s.mem[key] = res
	if s.maxBytes > 0 && size >= 0 {
		s.touch(key, size)
		s.evict()
	}
	s.mu.Unlock()
}

// touch makes key the most recently accessed, tracking it if new; a
// size >= 0 also records that as its on-disk footprint. Caller holds
// mu.
func (s *Store) touch(key string, size int64) {
	el, ok := s.elem[key]
	if ok {
		s.lru.MoveToFront(el)
	} else {
		el = s.lru.PushFront(&lruEntry{key: key})
		s.elem[key] = el
	}
	if size >= 0 {
		e := el.Value.(*lruEntry)
		s.diskBytes += size - e.size
		e.size = size
	}
}

// evict removes least-recently-accessed entries (disk file and memory
// entry both) until the on-disk footprint fits the budget. Caller
// holds mu. A single entry larger than the whole budget is evicted
// too — the bound is absolute, not per-entry best-effort.
func (s *Store) evict() {
	for s.diskBytes > s.maxBytes {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.elem, e.key)
		delete(s.mem, e.key)
		s.diskBytes -= e.size
		s.evictions++
		s.disk.remove(e.key)
	}
}

// DiskBytes returns the tracked on-disk footprint (0 when unbounded —
// an unbounded store keeps no size bookkeeping).
func (s *Store) DiskBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.diskBytes
}

// Evictions returns how many entries a bounded store has evicted.
func (s *Store) Evictions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evictions
}

// Err returns the first disk I/O error encountered, if any. The store
// remains usable in memory after a disk failure.
func (s *Store) Err() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Err()
}
