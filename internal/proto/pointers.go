package proto

// PointerStore implements the dynamic pointer allocation scheme of the
// FLASH protocol: directory headers do not hold full sharer bit vectors;
// instead each header chains a singly linked list of (node, next) links
// drawn from a global pool.
// The pool grows on demand and never runs dry. A list holds at most
// one link per node, so the pool never holds more than nodes links per
// line the directory records. The hardware's pool is fixed, and when it
// runs out the protocol invalidates a victim list's sharers to free its
// links; dropping a sharer without that invalidation would leave a copy
// that no later write invalidates, so the model's pool grows instead.
// Growth is index-stable (links are only appended): a released link is
// reused LIFO, and a fresh link always gets the smallest never-used
// index.
type PointerStore struct {
	node []int32
	next []int32
	free int32 // head of free list (released links only)
}

// Reset makes s an empty pool, in s's link arrays.
func (s *PointerStore) Reset() {
	*s = PointerStore{node: s.node[:0], next: s.next[:0], free: -1}
}

// Add prepends node to the list at head, returning the new head. Adding
// a node already on the list is a no-op.
func (s *PointerStore) Add(head int32, node int) int32 {
	if s.Contains(head, node) {
		return head
	}
	l := s.free
	if l >= 0 {
		s.free = s.next[l]
	} else {
		l = int32(len(s.node))
		s.node = append(s.node, 0)
		s.next = append(s.next, 0)
	}
	s.node[l] = int32(node)
	s.next[l] = head
	return l
}

// Contains reports whether node is on the list at head.
func (s *PointerStore) Contains(head int32, node int) bool {
	for l := head; l >= 0; l = s.next[l] {
		if s.node[l] == int32(node) {
			return true
		}
	}
	return false
}

// Collect returns the nodes on the list at head.
func (s *PointerStore) Collect(head int32) []int {
	var out []int
	for l := head; l >= 0; l = s.next[l] {
		out = append(out, int(s.node[l]))
	}
	return out
}

// Remove deletes node from the list at head, returning the new head.
func (s *PointerStore) Remove(head int32, node int) int32 {
	var prev int32 = -1
	for l := head; l >= 0; l = s.next[l] {
		if s.node[l] == int32(node) {
			nxt := s.next[l]
			s.next[l] = s.free
			s.free = l
			if prev < 0 {
				return nxt
			}
			s.next[prev] = nxt
			return head
		}
		prev = l
	}
	return head
}

// Free releases the whole list at head back to the pool and returns -1.
func (s *PointerStore) Free(head int32) int32 {
	for l := head; l >= 0; {
		nxt := s.next[l]
		s.next[l] = s.free
		s.free = l
		l = nxt
	}
	return -1
}
