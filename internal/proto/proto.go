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
// machine. It holds a record only for a line some cache may hold: an
// entry materializes in DirUnowned state on a line's first request and
// is forgotten when a Replace or Writeback leaves it DirUnowned with an
// empty sharing list, which is exactly what a fresh entry would be.
type Directory struct {
	nodes  int
	store  PointerStore
	index  map[uint64]int32 // line -> slot in slab
	slab   []entry          // entries by value
	free   int32            // forgotten slots, chained through entry.head; -1 = none
	stats  DirStats
	inval  []int // scratch backing WriteResult.Invalidate
	checks bool  // per-operation invariant verification (invariants.go)
}

type entry struct {
	state EntryState
	owner int32
	// head indexes the sharing list in the pointer store; -1 = empty.
	// In a forgotten slot it links the next free slot instead.
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

// NewDirectory creates a directory for an n-node machine. storeLinks
// is ignored: the pointer store grows on demand (it leaves with ROADMAP
// item 1(h)).
func NewDirectory(nodes int, storeLinks int) *Directory {
	d := new(Directory)
	d.Reset(nodes)
	return d
}

// Reset makes d the empty directory NewDirectory(nodes, 0) creates, in
// d's index, slab and pointer arrays: a map refilled after clear
// allocates nothing up to the size it had.
func (d *Directory) Reset(nodes int) {
	index := d.index
	if index == nil {
		index = make(map[uint64]int32)
	}
	clear(index)
	store := d.store
	store.Reset()
	*d = Directory{
		nodes: nodes,
		store: store,
		index: index,
		slab:  d.slab[:0],
		free:  -1,
		inval: d.inval[:0],
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

// lookup returns line's entry and its slot, or nil if the directory
// holds no record of the line. The pointer is into the slab: it is good
// until the next entryFor.
func (d *Directory) lookup(line uint64) (*entry, int32) {
	if i, ok := d.index[line]; ok {
		return &d.slab[i], i
	}
	return nil, -1
}

func (d *Directory) entryFor(line uint64) *entry {
	if e, _ := d.lookup(line); e != nil {
		return e
	}
	i := d.free
	if i >= 0 {
		d.free = d.slab[i].head
	} else {
		i = int32(len(d.slab))
		d.slab = append(d.slab, entry{})
	}
	d.index[line] = i
	d.slab[i] = entry{state: DirUnowned, owner: -1, head: -1}
	return &d.slab[i]
}

// forgetIfUnowned drops the record of line, held in slot i, when it is
// back to DirUnowned with no sharers: a fresh entry is the same.
func (d *Directory) forgetIfUnowned(line uint64, i int32) {
	if e := &d.slab[i]; e.state == DirUnowned && e.head < 0 {
		delete(d.index, line)
		e.head = d.free
		d.free = i
	}
}

// State returns the directory state, owner, and sharer list of a line
// (owner is -1 unless dirty). Intended for tests and invariant checks.
func (d *Directory) State(line uint64) (EntryState, int, []int) {
	e, _ := d.lookup(line)
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
	e, i := d.lookup(line)
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
	d.forgetIfUnowned(line, i)
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
	d.stats.Writebacks++
	e, i := d.lookup(line)
	if e == nil {
		return
	}
	if e.state == DirDirty && int(e.owner) == owner {
		d.transition(e, DirUnowned, -1)
		e.head = d.store.Free(e.head)
	}
	// A writeback racing a forwarded request is resolved in the
	// machine's favor elsewhere; a stale writeback is dropped here.
	d.check(line, e)
	d.forgetIfUnowned(line, i)
}

// NoteStaleInval records that an invalidation reached a cache that had
// silently evicted the line (statistics only; the protocol tolerates
// stale sharing lists).
func (d *Directory) NoteStaleInval() { d.stats.StaleInvals++ }

// Lines returns the number of lines the directory holds a record for.
func (d *Directory) Lines() int { return len(d.index) }
