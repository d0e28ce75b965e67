package proto

import "testing"

func TestPointerStoreAddCollect(t *testing.T) {
	s := NewPointerStore(8)
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
	if len(s.CollectInto(head, nil)) != 2 || s.InUse() != 2 {
		t.Fatalf("len=%d inuse=%d", len(s.CollectInto(head, nil)), s.InUse())
	}
}

func TestPointerStoreRemove(t *testing.T) {
	s := NewPointerStore(8)
	head := int32(-1)
	for _, n := range []int{1, 2, 3} {
		head = s.Add(head, n)
	}
	head = s.Remove(head, 2)
	if s.Contains(head, 2) || len(s.CollectInto(head, nil)) != 2 {
		t.Fatal("remove middle")
	}
	head = s.Remove(head, 3) // 3 is at the list head
	if s.Contains(head, 3) || len(s.CollectInto(head, nil)) != 1 {
		t.Fatal("remove head")
	}
	head = s.Remove(head, 99) // absent: no-op
	if len(s.CollectInto(head, nil)) != 1 {
		t.Fatal("remove absent")
	}
}

func TestPointerStoreFree(t *testing.T) {
	s := NewPointerStore(4)
	head := int32(-1)
	for n := 0; n < 4; n++ {
		head = s.Add(head, n)
	}
	head = s.Free(head)
	if head != -1 || s.InUse() != 0 {
		t.Fatal("free")
	}
	// All links reusable after free.
	head2 := int32(-1)
	for n := 0; n < 4; n++ {
		head2 = s.Add(head2, n)
	}
	if len(s.CollectInto(head2, nil)) != 4 {
		t.Fatal("reuse after free")
	}
}

func TestPointerStoreExhaustionReclaims(t *testing.T) {
	s := NewPointerStore(2)
	head := int32(-1)
	head = s.Add(head, 0)
	head = s.Add(head, 1)
	head = s.Add(head, 2) // pool exhausted: reclaims within this list
	if s.Reclaims() != 1 {
		t.Fatalf("reclaims %d", s.Reclaims())
	}
	if !s.Contains(head, 2) {
		t.Fatal("newest sharer must be recorded")
	}
	if len(s.CollectInto(head, nil)) != 2 {
		t.Fatalf("len %d after reclaim", len(s.CollectInto(head, nil)))
	}
}

func TestPointerStoreHighWater(t *testing.T) {
	s := NewPointerStore(8)
	head := int32(-1)
	for n := 0; n < 5; n++ {
		head = s.Add(head, n)
	}
	s.Free(head)
	if s.HighWater() != 5 {
		t.Fatalf("high water %d", s.HighWater())
	}
}
