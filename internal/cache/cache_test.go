package cache

import (
	"testing"
	"testing/quick"
)

// tiny returns a 4-set, 2-way, 32B-line cache (256 bytes).
func tiny() *Cache {
	return New(Config{Name: "t", Size: 256, LineSize: 32, Ways: 2})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "c", Size: 1024, LineSize: 32, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "l", Size: 1024, LineSize: 33, Ways: 2},       // line not pow2
		{Name: "w", Size: 1024, LineSize: 32, Ways: 0},       // no ways
		{Name: "s", Size: 1000, LineSize: 32, Ways: 2},       // indivisible
		{Name: "p", Size: 32 * 2 * 3, LineSize: 32, Ways: 2}, // sets not pow2
		{Name: "b", Size: 64, LineSize: 2, Ways: 2},          // no room for the state bits
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := Config{Size: 128 << 10, LineSize: 128, Ways: 2}
	if c.Sets() != 512 {
		t.Fatalf("sets = %d", c.Sets())
	}
	if c.WaySize() != 64<<10 {
		t.Fatalf("way size = %d", c.WaySize())
	}
	if c.LineAddr(0x12345) != 0x12345&^uint64(127) {
		t.Fatal("line addr")
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := tiny()
	if _, hit := c.Access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	c.Insert(0x100, Shared)
	if st, hit := c.Access(0x100, false); !hit || st != Shared {
		t.Fatalf("hit=%v st=%v", hit, st)
	}
}

func TestWriteToSharedIsUpgradeMiss(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Shared)
	if st, hit := c.Access(0x100, true); hit || st != Shared {
		t.Fatalf("write to Shared must miss for coherence: hit=%v st=%v", hit, st)
	}
}

func TestWriteToExclusiveSilentlyModifies(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Exclusive)
	if st, hit := c.Access(0x100, true); !hit || st != Exclusive {
		t.Fatalf("hit=%v st=%v", hit, st)
	}
	if got := c.Lookup(0x100); got != Modified {
		t.Fatalf("state after silent upgrade = %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets; same set: addresses 0, 128, 256...
	c.Insert(0, Shared)
	c.Insert(128, Shared)
	c.Access(0, false) // refresh 0; LRU is 128
	v := c.Insert(256, Shared)
	if !v.Valid || v.Addr != 128 {
		t.Fatalf("victim %+v, want addr 128", v)
	}
	if v.Dirty || v.State != Shared {
		t.Fatalf("victim flags %+v", v)
	}
}

func TestDirtyVictim(t *testing.T) {
	c := tiny()
	c.Insert(0, Modified)
	c.Insert(128, Shared)
	v := c.Insert(256, Shared)
	if !v.Valid || v.Addr != 0 || !v.Dirty || v.State != Modified {
		t.Fatalf("victim %+v", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Shared)
	v := c.Insert(0x100, Modified)
	if v.Valid {
		t.Fatal("re-insert must not evict")
	}
	if c.Lookup(0x100) != Modified {
		t.Fatal("state not updated")
	}
	if c.Resident() != 1 {
		t.Fatal("duplicate line")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Modified)
	if st := c.Invalidate(0x100); st != Modified {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.Lookup(0x100) != Invalid {
		t.Fatal("line still present")
	}
	if st := c.Invalidate(0x100); st != Invalid {
		t.Fatal("double invalidate")
	}
}

func TestDowngrade(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Modified)
	if st := c.Downgrade(0x100); st != Modified {
		t.Fatalf("downgrade returned %v", st)
	}
	if c.Lookup(0x100) != Shared {
		t.Fatal("line not shared after downgrade")
	}
	if st := c.Downgrade(0x200); st != Invalid {
		t.Fatal("downgrade of absent line")
	}
	// Downgrading a Shared line leaves it Shared.
	if st := c.Downgrade(0x100); st != Shared || c.Lookup(0x100) != Shared {
		t.Fatal("downgrade of shared line")
	}
}

func TestMarkDirty(t *testing.T) {
	c := tiny()
	c.Insert(0x100, Exclusive)
	if !c.MarkDirty(0x100) {
		t.Fatal("mark dirty missed present line")
	}
	if c.Lookup(0x100) != Modified {
		t.Fatal("state not modified")
	}
	if c.MarkDirty(0x900) {
		t.Fatal("mark dirty on absent line")
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(0x100, Invalid)
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified} {
		if s.String() == "" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

// TestResidencyBoundProperty: residency never exceeds capacity and the
// most recent insert is always resident.
func TestResidencyBoundProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tiny()
		capLines := 8
		for i, a := range addrs {
			pa := uint64(a) &^ 31
			w := i < len(writes) && writes[i]
			if _, hit := c.Access(pa, w); !hit {
				st := Shared
				if w {
					st = Modified
				}
				c.Insert(pa, st)
			}
			if c.Resident() > capLines {
				return false
			}
			if c.Lookup(pa) == Invalid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConflictSetThrashing: three same-set lines in a two-way cache
// never all survive — the Ocean/Solo mechanism.
func TestConflictSetThrashing(t *testing.T) {
	c := tiny()
	for round := 0; round < 4; round++ {
		for _, pa := range []uint64{0, 128, 256} {
			if _, hit := c.Access(pa, false); !hit {
				c.Insert(pa, Shared)
			}
		}
	}
	st := c.Stats()
	// Round-robin over 3 lines with 2-way LRU misses every time.
	if st.Hits != 0 {
		t.Fatalf("expected pure thrash, got %d hits", st.Hits)
	}
}
