package proto

import "testing"

// newStore is an empty pool.
func newStore() *PointerStore {
	s := new(PointerStore)
	s.Reset()
	return s
}

func TestPointerStoreAddCollect(t *testing.T) {
	s := newStore()
	head := int32(-1)
	head = s.Add(head, 3)
	head = s.Add(head, 5)
	head = s.Add(head, 3) // duplicate: no-op
	got := s.Collect(head)
	if len(got) != 2 {
		t.Fatalf("collect %v", got)
	}
	if !s.Contains(head, 3) || !s.Contains(head, 5) || s.Contains(head, 9) {
		t.Fatal("contains")
	}
	if len(s.node) != 2 {
		t.Fatalf("%d links for a two-sharer list", len(s.node))
	}
}

func TestPointerStoreRemove(t *testing.T) {
	s := newStore()
	head := int32(-1)
	for _, n := range []int{1, 2, 3} {
		head = s.Add(head, n)
	}
	head = s.Remove(head, 2)
	if s.Contains(head, 2) || len(s.Collect(head)) != 2 {
		t.Fatal("remove middle")
	}
	head = s.Remove(head, 3) // 3 is at the list head
	if s.Contains(head, 3) || len(s.Collect(head)) != 1 {
		t.Fatal("remove head")
	}
	head = s.Remove(head, 99) // absent: no-op
	if len(s.Collect(head)) != 1 {
		t.Fatal("remove absent")
	}
}

func TestPointerStoreFree(t *testing.T) {
	s := newStore()
	head := int32(-1)
	for n := 0; n < 4; n++ {
		head = s.Add(head, n)
	}
	head = s.Free(head)
	if head != -1 {
		t.Fatal("free")
	}
	// Every freed link is reused: the same number again does not grow
	// the link arrays.
	head2 := int32(-1)
	for n := 0; n < 4; n++ {
		head2 = s.Add(head2, n)
	}
	if len(s.Collect(head2)) != 4 {
		t.Fatal("reuse after free")
	}
	if len(s.node) != 4 || len(s.next) != 4 {
		t.Fatalf("links grew to %d/%d re-adding 4 freed links", len(s.node), len(s.next))
	}
	// Likewise a removed link.
	head2 = s.Remove(head2, 2)
	head2 = s.Add(head2, 7)
	if len(s.node) != 4 || !s.Contains(head2, 7) {
		t.Fatalf("links grew to %d re-adding a removed link", len(s.node))
	}
}
