package proto

// PointerStore implements the dynamic pointer allocation scheme of the
// FLASH protocol: directory headers do not hold full sharer bit vectors;
// instead each header chains a singly linked list of (node, next) links
// drawn from a global pool. When the pool is exhausted the store
// reclaims a link from the longest observed list by dropping one sharer
// (which is safe — the protocol then merely sends no invalidation to
// that node, and correctness is preserved by the requester revalidating;
// here we model the reclaim as dropping the list head, counting the
// event).
// The link arrays grow on demand up to the configured pool size rather
// than being allocated up front: the default pool is 2^20 links but a
// run's high-water mark is typically a few sharers per line, and a
// directory is built per machine run, so eager allocation dominated the
// run loop's memory traffic. Growth is index-stable (links are only
// appended) and allocation order is unchanged — a released link is
// reused LIFO exactly as before, and a fresh link always gets the
// smallest never-used index, which is the order the eager free list
// handed them out.
type PointerStore struct {
	node    []int32
	next    []int32
	limit   int   // pool size: links never exceed this
	free    int32 // head of free list (released links only)
	inUse   int
	highWtr int
	reclaim uint64
}

// NewPointerStore creates a pool with n links.
func NewPointerStore(n int) *PointerStore {
	if n <= 0 {
		n = 1
	}
	return &PointerStore{limit: n, free: -1}
}

// Add prepends node to the list at head, returning the new head. Adding
// a node already on the list is a no-op.
func (s *PointerStore) Add(head int32, node int) int32 {
	if s.Contains(head, node) {
		return head
	}
	l := s.free
	switch {
	case l >= 0:
		s.free = s.next[l]
	case len(s.node) < s.limit:
		l = int32(len(s.node))
		s.node = append(s.node, 0)
		s.next = append(s.next, 0)
	default:
		// Pool exhausted: reclaim the link at the current head (drop
		// one sharer from this very list, like the real protocol's
		// pointer reclamation).
		s.reclaim++
		if head >= 0 {
			s.node[head] = int32(node)
			return head
		}
		return -1
	}
	s.node[l] = int32(node)
	s.next[l] = head
	s.inUse++
	if s.inUse > s.highWtr {
		s.highWtr = s.inUse
	}
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
	return s.CollectInto(head, nil)
}

// CollectInto appends the nodes on the list at head to out and returns
// the extended slice, so hot callers can reuse one scratch buffer
// instead of allocating per call.
func (s *PointerStore) CollectInto(head int32, out []int) []int {
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
			s.inUse--
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
		s.inUse--
		l = nxt
	}
	return -1
}

// InUse returns the number of allocated links.
func (s *PointerStore) InUse() int { return s.inUse }

// HighWater returns the maximum simultaneous allocation observed.
func (s *PointerStore) HighWater() int { return s.highWtr }

// Reclaims returns how many times pool exhaustion forced a sharer drop.
func (s *PointerStore) Reclaims() uint64 { return s.reclaim }
