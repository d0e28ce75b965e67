package proto

import "fmt"

// Invariant checking: every directory operation can verify the touched
// entry against the protocol's structural invariants —
//
//   - dirty: exactly one owner, a valid node id, and an empty sharing
//     list (no dirty-shared lines);
//   - shared: no owner, a non-empty sharing list whose members are all
//     valid node ids with no duplicates (sharer set ⊆ machine nodes);
//   - unowned: no owner and no sharers.
//
// The checks are off by default (one predictable branch on the hot
// path) and are enabled per-directory via EnableInvariantChecks — the
// machine model turns them on when Config.CheckCoherence is set, and
// the randomized-traffic tests drive thousands of mixed operations
// with them enabled. Reset turns them off again.

// EnableInvariantChecks turns on per-operation invariant verification.
// A violation panics with a description of the broken entry; the
// runner pool converts the panic into a per-job error.
func (d *Directory) EnableInvariantChecks() { d.checks = true }

// check verifies the entry just touched by an operation, when enabled.
func (d *Directory) check(line uint64, e *entry) {
	if !d.checks {
		return
	}
	if err := d.checkEntry(line, e); err != nil {
		panic(err)
	}
}

// CheckLine verifies one line's directory entry against the protocol
// invariants. Lines never touched are trivially valid.
func (d *Directory) CheckLine(line uint64) error {
	e, _ := d.lookup(line)
	if e == nil {
		return nil
	}
	return d.checkEntry(line, e)
}

// CheckAll verifies every materialized directory entry, returning the
// first violation found.
func (d *Directory) CheckAll() error {
	for line, i := range d.index {
		if err := d.checkEntry(line, &d.slab[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *Directory) checkEntry(line uint64, e *entry) error {
	sharers := d.store.Collect(e.head)
	switch e.state {
	case DirDirty:
		if e.owner < 0 || int(e.owner) >= d.nodes {
			return fmt.Errorf("proto: line %#x dirty with invalid owner %d (nodes=%d)", line, e.owner, d.nodes)
		}
		if len(sharers) != 0 {
			return fmt.Errorf("proto: line %#x dirty-shared: owner %d with sharers %v", line, e.owner, sharers)
		}
	case DirShared:
		if e.owner != -1 {
			return fmt.Errorf("proto: line %#x shared but has owner %d", line, e.owner)
		}
		if len(sharers) == 0 {
			return fmt.Errorf("proto: line %#x shared with empty sharing list", line)
		}
		seen := make(map[int]bool, len(sharers))
		for _, s := range sharers {
			if s < 0 || s >= d.nodes {
				return fmt.Errorf("proto: line %#x sharer %d outside machine (nodes=%d)", line, s, d.nodes)
			}
			if seen[s] {
				return fmt.Errorf("proto: line %#x sharer %d listed twice: %v", line, s, sharers)
			}
			seen[s] = true
		}
	case DirUnowned:
		if e.owner != -1 {
			return fmt.Errorf("proto: line %#x unowned but has owner %d", line, e.owner)
		}
		if len(sharers) != 0 {
			return fmt.Errorf("proto: line %#x unowned with sharers %v", line, sharers)
		}
	default:
		return fmt.Errorf("proto: line %#x in impossible state %d", line, e.state)
	}
	return nil
}
