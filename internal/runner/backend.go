package runner

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"flashsim/internal/machine"
)

// Backend is the memo-store seam of the run pool: anything that can
// answer "have we computed this fingerprint before?" and remember a
// fresh result. The pool does Get before simulating and Put after,
// and knows nothing else about where results live.
//
// Two implementations ship with the tree, one per medium:
//
//   - *DiskBackend: the on-disk store, one <key>.json per fingerprint.
//     It is the only code that reads, validates and atomically writes
//     an entry. No in-memory copy, so every Get sees what any process
//     sharing the directory has written.
//   - *Store: the in-memory map, optionally wrapped around a
//     DiskBackend (-cache-dir) and optionally a byte-bounded LRU over
//     it (-cache-max-bytes). What every CLI and flashd use.
//
// Backends must be safe for concurrent use, and a Get that cannot
// produce a complete, correct result must report a miss — the caller
// recomputes, which is always sound. A backend never returns a partial
// or corrupt result.
type Backend interface {
	Get(key string) (machine.Result, bool)
	Put(key string, res machine.Result)
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*DiskBackend)(nil)
)

// DiskBackend is the on-disk memo store: one JSON file per fingerprint,
// <key>.json under the -cache-dir. It keeps no in-memory copy, so every
// Get re-reads the directory and sees writes made by other processes
// sharing it.
//
// Concurrent handles on one directory are safe: writes land via
// temp-file + rename, so a reader observes either the complete previous
// entry, the complete new one, or (before any write) a miss — never a
// partial file. Concurrent Puts of one key race benignly; both bodies
// decode to the same result, whichever rename lands last wins.
type DiskBackend struct {
	dir string

	mu  sync.Mutex
	err error
}

// NewDiskBackend returns a store rooted at dir, creating it if missing.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskBackend{dir: dir}, nil
}

// Dir returns the directory.
func (b *DiskBackend) Dir() string { return b.dir }

func (b *DiskBackend) path(key string) string {
	return filepath.Join(b.dir, key+".json")
}

// Get reads the entry for key from disk. Any unreadable or undecodable
// entry — missing, truncated by a crashed writer of a non-atomic
// filesystem, or written by an incompatible build — is a miss: the run
// is recomputed and rewritten, never served partially.
func (b *DiskBackend) Get(key string) (machine.Result, bool) {
	res, _, ok := b.read(key)
	return res, ok
}

// read is Get that also reports the entry's size on disk.
func (b *DiskBackend) read(key string) (machine.Result, int64, bool) {
	data, err := os.ReadFile(b.path(key))
	if err != nil {
		return machine.Result{}, 0, false
	}
	var res machine.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return machine.Result{}, 0, false
	}
	return res, int64(len(data)), true
}

// Put persists res under key atomically (temp file + rename). The
// first I/O error is retained (Err) and later Puts keep trying.
func (b *DiskBackend) Put(key string, res machine.Result) { b.write(key, res) }

// write is Put that also reports the bytes written, -1 on failure.
func (b *DiskBackend) write(key string, res machine.Result) int64 {
	data, err := json.Marshal(res)
	if err == nil {
		// entries counts only .json files, so a temp file left behind
		// would sit outside any -cache-max-bytes bound; WriteFileAtomic
		// leaves none.
		err = WriteFileAtomic(b.path(key), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	if err != nil {
		b.mu.Lock()
		if b.err == nil {
			b.err = err
		}
		b.mu.Unlock()
		return -1
	}
	return int64(len(data))
}

// WriteFileAtomic lands what write produces at path via a temp file in
// the same directory and a rename, so a concurrent reader never observes
// a partial file and a failed write leaves whatever was at path in
// place. A failed write, close or rename removes the temp file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// remove deletes key's entry; a missing entry is not an error (another
// process sharing the directory may have evicted it first).
func (b *DiskBackend) remove(key string) { os.Remove(b.path(key)) }

// diskEntry is one entry found by entries.
type diskEntry struct {
	key  string
	size int64
	mod  int64
}

// entries lists what the directory holds, oldest modification first.
// Entries that cannot be inspected are skipped (they will surface as
// misses and be rewritten later).
func (b *DiskBackend) entries() []diskEntry {
	dirents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil
	}
	var out []diskEntry
	for _, e := range dirents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, diskEntry{
			key:  strings.TrimSuffix(name, ".json"),
			size: info.Size(),
			mod:  info.ModTime().UnixNano(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mod < out[j].mod })
	return out
}

// Err returns the first I/O error encountered, if any.
func (b *DiskBackend) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
