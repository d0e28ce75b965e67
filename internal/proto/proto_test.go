package proto

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestClassifyMatchesTable3(t *testing.T) {
	cases := []struct {
		name            string
		requester, home int
		st              EntryState
		owner           int
		shares          bool
		want            Case
	}{
		{"local clean unowned", 0, 0, DirUnowned, -1, false, LocalClean},
		{"local clean shared", 0, 0, DirShared, -1, false, LocalClean},
		{"local dirty remote", 0, 0, DirDirty, 1, false, LocalDirtyRemote},
		{"remote clean", 0, 1, DirUnowned, -1, false, RemoteClean},
		{"remote dirty home", 0, 1, DirDirty, 1, false, RemoteDirtyHome},
		{"remote dirty remote", 0, 1, DirDirty, 2, false, RemoteDirtyRemote},
		{"upgrade", 0, 1, DirShared, -1, true, Upgrade},
	}
	for _, c := range cases {
		if got := Classify(c.requester, c.home, c.st, c.owner, c.shares); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReadGrantsExclusiveOnUnowned(t *testing.T) {
	d := NewDirectory(4, 0)
	rr := d.Read(0x1000, 0, 2)
	if !rr.Exclusive {
		t.Fatal("read to unowned must grant exclusive")
	}
	st, owner, _ := d.State(0x1000)
	if st != DirDirty || owner != 2 {
		t.Fatalf("state %v owner %d", st, owner)
	}
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 2)
	rr := d.Read(0x1000, 0, 3)
	if rr.Exclusive {
		t.Fatal("second read must not be exclusive")
	}
	if rr.Owner != 2 {
		t.Fatalf("forward owner %d, want 2", rr.Owner)
	}
	st, _, sharers := d.State(0x1000)
	if st != DirShared || len(sharers) != 2 {
		t.Fatalf("state %v sharers %v", st, sharers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 1)
	d.Read(0x1000, 0, 2)
	d.Read(0x1000, 0, 3)
	wr := d.Write(0x1000, 0, 0)
	if len(wr.Invalidate) != 3 {
		t.Fatalf("invalidations %v", wr.Invalidate)
	}
	for _, s := range wr.Invalidate {
		if s == 0 {
			t.Fatal("requester must not invalidate itself")
		}
	}
	st, owner, sharers := d.State(0x1000)
	if st != DirDirty || owner != 0 || len(sharers) != 0 {
		t.Fatalf("post-write state %v owner %d sharers %v", st, owner, sharers)
	}
}

func TestUpgradeCase(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 1)
	d.Read(0x1000, 0, 2) // both sharing now
	wr := d.Write(0x1000, 0, 1)
	if wr.Case != Upgrade {
		t.Fatalf("case %v, want upgrade", wr.Case)
	}
	if len(wr.Invalidate) != 1 || wr.Invalidate[0] != 2 {
		t.Fatalf("invalidate %v", wr.Invalidate)
	}
}

func TestWriteToOwnDirtyLineIsUpgradeLike(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Write(0x1000, 0, 1)
	wr := d.Write(0x1000, 0, 1)
	if wr.Case != Upgrade || wr.Owner != -1 || len(wr.Invalidate) != 0 {
		t.Fatalf("re-acquire: %+v", wr)
	}
}

func TestWritebackClearsOwnership(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Write(0x1000, 0, 2)
	d.Writeback(0x1000, 2)
	st, owner, _ := d.State(0x1000)
	if st != DirUnowned || owner != -1 {
		t.Fatalf("post-writeback %v/%d", st, owner)
	}
	// A stale writeback from a non-owner is dropped.
	d.Write(0x1000, 0, 1)
	d.Writeback(0x1000, 3)
	st, owner, _ = d.State(0x1000)
	if st != DirDirty || owner != 1 {
		t.Fatalf("stale writeback disturbed state: %v/%d", st, owner)
	}
}

func TestReplaceHints(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 2) // exclusive grant
	d.Replace(0x1000, 2)
	st, _, _ := d.State(0x1000)
	if st != DirUnowned {
		t.Fatalf("replace of exclusive owner: %v", st)
	}
	d.Read(0x1000, 0, 1)
	d.Read(0x1000, 0, 2)
	d.Replace(0x1000, 1)
	st, _, sharers := d.State(0x1000)
	if st != DirShared || len(sharers) != 1 || sharers[0] != 2 {
		t.Fatalf("replace of sharer: %v %v", st, sharers)
	}
	d.Replace(0x1000, 2)
	st, _, _ = d.State(0x1000)
	if st != DirUnowned {
		t.Fatalf("replace of last sharer: %v", st)
	}
	d.Replace(0x9999, 0) // unknown line: no-op
}

func TestDirtyReadNeverReportsUpgrade(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 1)
	d.Read(0x1000, 0, 2)
	// Node 1 silently evicted and re-reads; the stale sharing list
	// must not turn the read into an Upgrade.
	rr := d.Read(0x1000, 0, 1)
	if rr.Case == Upgrade {
		t.Fatal("read classified as upgrade")
	}
}

func TestCaseStrings(t *testing.T) {
	for c := Case(0); c < NumCases; c++ {
		if c.String() == "" {
			t.Errorf("case %d unnamed", c)
		}
	}
	for _, s := range []EntryState{DirUnowned, DirShared, DirDirty} {
		if s.String() == "" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDirectory(4, 0)
	d.Read(0x1000, 0, 1)
	d.Write(0x2000, 0, 2)
	d.Writeback(0x2000, 2)
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Writebacks != 1 {
		t.Fatalf("stats %+v", st)
	}
	// 0x2000 went back to unowned: only 0x1000 keeps a record.
	if d.Lines() != 1 {
		t.Fatalf("lines %d", d.Lines())
	}
}

// TestSingleOwnerInvariant: under random read/write/writeback traffic
// the directory never has two owners and dirty state always has exactly
// one owner.
func TestSingleOwnerInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory(4, 0)
		lines := []uint64{0x1000, 0x2000, 0x3000}
		for _, op := range ops {
			line := lines[int(op)%len(lines)]
			node := int(op>>2) % 4
			switch (op >> 4) % 3 {
			case 0:
				d.Read(line, 0, node)
			case 1:
				d.Write(line, 0, node)
			case 2:
				d.Writeback(line, node)
			}
			st, owner, sharers := d.State(line)
			switch st {
			case DirDirty:
				if owner < 0 || owner > 3 || len(sharers) != 0 {
					return false
				}
			case DirShared:
				if owner != -1 || len(sharers) == 0 {
					return false
				}
			case DirUnowned:
				if owner != -1 || len(sharers) != 0 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOneLinkStoreKeepsEverySharer: a directory asked for a one-link
// pointer store still records every sharer of two shared lines. A store
// that reclaimed links when its pool ran dry dropped sharer 0 of line
// 0x1000, so no write would ever invalidate node 0's copy, and left line
// 0x2000 shared with an empty sharing list.
func TestOneLinkStoreKeepsEverySharer(t *testing.T) {
	d := NewDirectory(4, 1)
	d.Read(0x1000, 0, 0)
	d.Read(0x1000, 0, 1)
	d.Read(0x2000, 0, 2)
	d.Read(0x2000, 0, 3)
	if err := d.CheckAll(); err != nil {
		t.Fatal(err)
	}
	for line, want := range map[uint64][]int{0x1000: {1, 0}, 0x2000: {3, 2}} {
		if st, _, sharers := d.State(line); st != DirShared || !slices.Equal(sharers, want) {
			t.Errorf("line %#x: %v, sharers %v; want shared by %v", line, st, sharers, want)
		}
	}
}
