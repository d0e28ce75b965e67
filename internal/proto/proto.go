// Package proto implements the FLASH cache-coherence directory protocol
// logic: a directory using dynamic pointer allocation (Table 1), the
// protocol-case classification that snbench's dependent-load tests
// exercise (Table 3), and the pure state machine that both memory-system
// models (FlashLite and NUMA) drive.
//
// The protocol is an invalidation-based MSI directory protocol. The
// directory entry for each line is a header plus a sharing list held in
// a shared pointer/link store — the dynamic pointer allocation scheme of
// the real FLASH protocol, in which headers chain pointers from a global
// pool rather than holding a full bit vector.
package proto

import "fmt"

// Case classifies a miss by where the data comes from, matching the five
// dependent-load cases of Table 3 (plus upgrade, which snbench does not
// time).
type Case uint8

const (
	// LocalClean: requester is the home node and memory is up to date.
	LocalClean Case = iota
	// LocalDirtyRemote: requester is home but a remote cache owns the
	// line dirty.
	LocalDirtyRemote
	// RemoteClean: home is remote and memory is up to date.
	RemoteClean
	// RemoteDirtyHome: home is remote and the home node's own cache
	// owns the line dirty.
	RemoteDirtyHome
	// RemoteDirtyRemote: home is remote and a third node owns the
	// line dirty (three-hop miss).
	RemoteDirtyRemote
	// Upgrade: requester already holds the line Shared and needs
	// ownership only (no data transfer).
	Upgrade
	// NumCases is the number of protocol cases.
	NumCases
)

var caseNames = [NumCases]string{
	"local-clean", "local-dirty-remote", "remote-clean",
	"remote-dirty-home", "remote-dirty-remote", "upgrade",
}

// String names the protocol case as in Table 3.
func (c Case) String() string {
	if int(c) < len(caseNames) {
		return caseNames[c]
	}
	return fmt.Sprintf("case(%d)", uint8(c))
}

// Classify derives the protocol case for a requester given the line's
// home node and directory state.
func Classify(requester, home int, st EntryState, owner int, requesterShares bool) Case {
	if requesterShares && st == DirShared {
		return Upgrade
	}
	local := requester == home
	switch st {
	case DirDirty:
		switch {
		case local:
			return LocalDirtyRemote
		case owner == home:
			return RemoteDirtyHome
		default:
			return RemoteDirtyRemote
		}
	default:
		if local {
			return LocalClean
		}
		return RemoteClean
	}
}

// EntryState is the directory's view of a line.
type EntryState uint8

const (
	// DirUnowned: no cached copies; memory is the only copy.
	DirUnowned EntryState = iota
	// DirShared: one or more read-only copies; memory up to date.
	DirShared
	// DirDirty: exactly one cache owns the line with write permission.
	DirDirty
)

// String names the directory state.
func (s EntryState) String() string {
	switch s {
	case DirUnowned:
		return "unowned"
	case DirShared:
		return "shared"
	case DirDirty:
		return "dirty"
	}
	return fmt.Sprintf("dirstate(%d)", uint8(s))
}

// ReadResult describes what must happen to satisfy a read miss.
type ReadResult struct {
	Case Case
	// Owner is the dirty owner to forward to (valid for dirty cases).
	Owner int
	// Exclusive reports the line was granted exclusively (read to an
	// unowned line, as on FLASH/Origin): the cache may install E and
	// write without an upgrade.
	Exclusive bool
}

// WriteResult describes what must happen to satisfy a write miss or
// upgrade.
type WriteResult struct {
	Case Case
	// Owner is the previous dirty owner to invalidate+fetch from.
	Owner int
	// Invalidate lists the sharer nodes (excluding the requester) that
	// must receive invalidations. The slice aliases a scratch buffer
	// owned by the Directory and is valid only until the next Write
	// call; callers consume it immediately and must not retain it.
	Invalidate []int
}

// Directory tracks the coherence state of every line homed across the
// machine. Entries materialize lazily in DirUnowned state.
type Directory struct {
	nodes  int
	store  *PointerStore
	index  map[uint64]int32 // line -> slot in slab
	slab   []entry          // entries by value, in first-touch order
	stats  DirStats
	inval  []int // scratch backing WriteResult.Invalidate
	checks bool  // per-operation invariant verification (invariants.go)
}

type entry struct {
	state EntryState
	owner int32
	// head indexes the sharing list in the pointer store; -1 = empty.
	head int32
}

// DirStats counts directory activity.
type DirStats struct {
	Reads         uint64
	Writes        uint64
	Writebacks    uint64
	Invalidations uint64 // individual invalidation messages sent
	Transitions   uint64 // directory (state, owner) changes
	// CaseCounts is every request the directory classified (Table 3),
	// indexed by Case: the ports' data accesses plus the lock and
	// barrier writes the machine sends straight to the memory system.
	CaseCounts  [NumCases]uint64
	StaleInvals uint64 // invalidations sent to nodes that silently evicted
}

// Add accumulates o into s.
func (s *DirStats) Add(o DirStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Writebacks += o.Writebacks
	s.Invalidations += o.Invalidations
	s.Transitions += o.Transitions
	s.StaleInvals += o.StaleInvals
	for c, n := range o.CaseCounts {
		s.CaseCounts[c] += n
	}
}

// NewDirectory creates a directory for an n-node machine backed by a
// pointer store with the given number of links (0 picks a default of
// 8 links per entry-sized heuristic, practically unbounded for the
// study's working sets).
func NewDirectory(nodes int, storeLinks int) *Directory {
	if storeLinks <= 0 {
		storeLinks = 1 << 20
	}
	return &Directory{
		nodes: nodes,
		store: NewPointerStore(storeLinks),
		index: make(map[uint64]int32),
	}
}

// Stats returns accumulated directory statistics.
func (d *Directory) Stats() DirStats { return d.stats }

// transition moves e to (st, owner), counting the change when the pair
// actually changes (sharing-list-only updates are not transitions).
func (d *Directory) transition(e *entry, st EntryState, owner int32) {
	if e.state != st || e.owner != owner {
		d.stats.Transitions++
	}
	e.state = st
	e.owner = owner
}

// lookup returns line's entry, or nil if the line was never touched.
// The pointer is into the slab: it is good until the next entryFor.
func (d *Directory) lookup(line uint64) *entry {
	if i, ok := d.index[line]; ok {
		return &d.slab[i]
	}
	return nil
}

func (d *Directory) entryFor(line uint64) *entry {
	if e := d.lookup(line); e != nil {
		return e
	}
	d.index[line] = int32(len(d.slab))
	d.slab = append(d.slab, entry{state: DirUnowned, owner: -1, head: -1})
	return &d.slab[len(d.slab)-1]
}

// State returns the directory state, owner, and sharer list of a line
// (owner is -1 unless dirty). Intended for tests and invariant checks.
func (d *Directory) State(line uint64) (EntryState, int, []int) {
	e := d.lookup(line)
	if e == nil {
		return DirUnowned, -1, nil
	}
	return e.state, int(e.owner), d.store.Collect(e.head)
}

// Read handles a read request for line homed at home from requester.
// The directory transitions to Shared (after any dirty owner is
// downgraded — the caller performs the actual cache intervention).
func (d *Directory) Read(line uint64, home, requester int) ReadResult {
	e := d.entryFor(line)
	d.stats.Reads++
	// A read never classifies as Upgrade, even when the requester is
	// still on the (possibly stale) sharing list after a silent
	// eviction.
	res := ReadResult{Owner: int(e.owner)}
	res.Case = Classify(requester, home, e.state, int(e.owner), false)
	switch e.state {
	case DirDirty:
		// Owner is downgraded to Shared; both owner and requester
		// end up on the sharing list and memory is made clean.
		prevOwner := int(e.owner)
		d.transition(e, DirShared, -1)
		e.head = d.store.Add(e.head, prevOwner)
		if prevOwner != requester {
			e.head = d.store.Add(e.head, requester)
		}
	case DirUnowned:
		// Read to an unowned line grants exclusive ownership so a
		// subsequent write needs no upgrade. The owner sends a
		// replacement hint (Replace) if it evicts the line clean.
		d.transition(e, DirDirty, int32(requester))
		res.Exclusive = true
	default:
		e.head = d.store.Add(e.head, requester)
	}
	d.stats.CaseCounts[res.Case]++
	d.check(line, e)
	return res
}

// Replace handles a clean-exclusive or shared eviction hint from node:
// the directory drops the node from its records without a data
// writeback.
func (d *Directory) Replace(line uint64, node int) {
	e := d.lookup(line)
	if e == nil {
		return
	}
	switch e.state {
	case DirDirty:
		if int(e.owner) == node {
			d.transition(e, DirUnowned, -1)
		}
	case DirShared:
		e.head = d.store.Remove(e.head, node)
		if e.head < 0 {
			d.transition(e, DirUnowned, -1)
		}
	}
	d.check(line, e)
}

// Write handles a write request (or upgrade) for line homed at home from
// requester. The returned WriteResult lists the caches that must be
// invalidated; the directory transitions to Dirty owned by requester.
func (d *Directory) Write(line uint64, home, requester int) WriteResult {
	e := d.entryFor(line)
	d.stats.Writes++
	res := WriteResult{Owner: -1}
	res.Case = Classify(requester, home, e.state, int(e.owner), d.store.Contains(e.head, requester))
	d.inval = d.inval[:0]
	switch e.state {
	case DirDirty:
		if int(e.owner) != requester {
			res.Owner = int(e.owner)
			d.inval = append(d.inval, int(e.owner))
			res.Invalidate = d.inval
		} else {
			// The requester already owns the line dirty (a
			// re-acquire after an uncached synchronization write):
			// the home merely confirms ownership.
			res.Case = Upgrade
		}
	case DirShared:
		for l := e.head; l >= 0; l = d.store.next[l] {
			if s := int(d.store.node[l]); s != requester {
				d.inval = append(d.inval, s)
			}
		}
		res.Invalidate = d.inval
	}
	d.stats.Invalidations += uint64(len(res.Invalidate))
	e.head = d.store.Free(e.head)
	d.transition(e, DirDirty, int32(requester))
	d.stats.CaseCounts[res.Case]++
	d.check(line, e)
	return res
}

// Writeback handles a dirty eviction from owner: memory becomes the only
// copy.
func (d *Directory) Writeback(line uint64, owner int) {
	e := d.entryFor(line)
	d.stats.Writebacks++
	if e.state == DirDirty && int(e.owner) == owner {
		d.transition(e, DirUnowned, -1)
		e.head = d.store.Free(e.head)
	}
	// A writeback racing a forwarded request is resolved in the
	// machine's favor elsewhere; a stale writeback is dropped here.
	d.check(line, e)
}

// NoteStaleInval records that an invalidation reached a cache that had
// silently evicted the line (statistics only; the protocol tolerates
// stale sharing lists).
func (d *Directory) NoteStaleInval() { d.stats.StaleInvals++ }

// Lines returns the number of materialized directory entries.
func (d *Directory) Lines() int { return len(d.slab) }
