package proto

import (
	"math/rand"
	"strings"
	"testing"
)

// TestRandomTrafficKeepsInvariants drives the directory through
// thousands of mixed read/write/evict/writeback operations from random
// nodes with per-operation invariant checking enabled. Any structural
// violation — dirty-shared, out-of-range sharer, duplicate sharer,
// owner on a non-dirty line — panics inside the operation that caused
// it, pinpointing the offending transition.
func TestRandomTrafficKeepsInvariants(t *testing.T) {
	const (
		nodes = 8
		lines = 64
		ops   = 20000
	)
	rng := rand.New(rand.NewSource(42))
	d := NewDirectory(nodes, 0)
	d.EnableInvariantChecks()
	if !d.checks {
		t.Fatal("checks did not enable")
	}
	var reads, writes, replaces, writebacks int
	for i := 0; i < ops; i++ {
		line := uint64(rng.Intn(lines)) << 7
		home := int(line>>7) % nodes
		node := rng.Intn(nodes)
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // read miss
			d.Read(line, home, node)
			reads++
		case 4, 5, 6: // write miss or upgrade
			d.Write(line, home, node)
			writes++
		case 7, 8: // clean replacement hint (may be stale: node
			// need not actually be on the sharing list)
			d.Replace(line, node)
			replaces++
		default: // dirty writeback, half the time from the true
			// owner, half stale (already superseded)
			if st, owner, _ := d.State(line); st == DirDirty && rng.Intn(2) == 0 {
				d.Writeback(line, owner)
			} else {
				d.Writeback(line, node)
			}
			writebacks++
		}
	}
	if reads == 0 || writes == 0 || replaces == 0 || writebacks == 0 {
		t.Fatalf("op mix degenerate: r=%d w=%d repl=%d wb=%d", reads, writes, replaces, writebacks)
	}
	// The per-op checks only inspect the touched entry; sweep everything
	// at the end too.
	if err := d.CheckAll(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads == 0 || s.Writes == 0 || s.Transitions == 0 {
		t.Fatalf("stats not accumulated: %+v", s)
	}
	if d.Reset(nodes); d.checks {
		t.Fatal("Reset left the checks on")
	}
}

// TestCheckerCatchesCorruption proves the checker is not vacuous: each
// hand-corrupted entry must be flagged with a message naming the broken
// invariant.
func TestCheckerCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Directory, e *entry)
		want    string
	}{
		{"dirty invalid owner", func(d *Directory, e *entry) {
			e.state = DirDirty
			e.owner = 99
		}, "invalid owner"},
		{"dirty-shared", func(d *Directory, e *entry) {
			e.state = DirDirty
			e.owner = 1
			e.head = d.store.Add(e.head, 2)
		}, "dirty-shared"},
		{"shared with owner", func(d *Directory, e *entry) {
			e.state = DirShared
			e.owner = 0
			e.head = d.store.Add(e.head, 1)
		}, "shared but has owner"},
		{"shared empty list", func(d *Directory, e *entry) {
			e.state = DirShared
			e.owner = -1
			e.head = d.store.Free(e.head)
		}, "empty sharing list"},
		{"sharer out of range", func(d *Directory, e *entry) {
			e.state = DirShared
			e.owner = -1
			e.head = d.store.Add(e.head, 7)
		}, "outside machine"},
		{"duplicate sharer", func(d *Directory, e *entry) {
			e.state = DirShared
			e.owner = -1
			// Add dedupes, so forge the duplicate in the link array.
			e.head = d.store.Add(e.head, 1)
			e.head = d.store.Add(e.head, 2)
			d.store.node[e.head] = 1
		}, "listed twice"},
		{"unowned with owner", func(d *Directory, e *entry) {
			e.state = DirUnowned
			e.owner = 3
			e.head = d.store.Free(e.head)
		}, "unowned but has owner"},
		{"unowned with sharers", func(d *Directory, e *entry) {
			e.state = DirUnowned
			e.owner = -1
			e.head = d.store.Add(e.head, 0)
		}, "unowned with sharers"},
		{"impossible state", func(d *Directory, e *entry) {
			e.state = EntryState(200)
		}, "impossible state"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDirectory(4, 0)
			const line = 0x2000
			d.Read(line, 0, 1) // materialize the entry
			e, _ := d.lookup(line)
			c.corrupt(d, e)
			err := d.CheckLine(line)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if err := d.CheckLine(0x9999); err != nil {
				t.Fatalf("untouched line must be trivially valid: %v", err)
			}
			if d.CheckAll() == nil {
				t.Fatal("CheckAll missed the corrupted line")
			}
		})
	}
}

// TestCheckPanicsWhenEnabled pins the in-band behavior: with checks on,
// the operation that lands on a corrupted entry panics.
func TestCheckPanicsWhenEnabled(t *testing.T) {
	d := NewDirectory(4, 0)
	d.EnableInvariantChecks()
	const line = 0x3000
	d.Read(line, 0, 1)
	e, _ := d.lookup(line)
	e.owner = 99 // corrupt behind the directory's back
	defer func() {
		if recover() == nil {
			t.Fatal("operation on corrupted entry did not panic")
		}
	}()
	d.Writeback(line, 2) // stale writeback still runs the check
}
