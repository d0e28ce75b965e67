package proto_test

import (
	"math/rand"
	"slices"
	"testing"

	"flashsim/internal/proto"
)

// naiveLine is one line of the oracle: its state, owner and sharers,
// head of the list first.
type naiveLine struct {
	state   proto.EntryState
	owner   int
	sharers []int
}

// naiveDir is the oracle for proto.Directory: a map of every line ever
// touched, never forgotten, with the sharing lists as plain slices. It
// shares no code with proto.Directory.
type naiveDir struct {
	lines map[uint64]*naiveLine
	stats proto.DirStats
}

func (o *naiveDir) line(l uint64) *naiveLine {
	nl := o.lines[l]
	if nl == nil {
		nl = &naiveLine{state: proto.DirUnowned, owner: -1}
		o.lines[l] = nl
	}
	return nl
}

func (o *naiveDir) set(nl *naiveLine, st proto.EntryState, owner int) {
	if nl.state != st || nl.owner != owner {
		o.stats.Transitions++
	}
	nl.state, nl.owner = st, owner
}

func (o *naiveDir) add(nl *naiveLine, node int) {
	if !slices.Contains(nl.sharers, node) {
		nl.sharers = slices.Insert(nl.sharers, 0, node)
	}
}

func (o *naiveDir) Read(line uint64, home, req int) proto.ReadResult {
	nl := o.line(line)
	o.stats.Reads++
	res := proto.ReadResult{Owner: nl.owner, Case: proto.Classify(req, home, nl.state, nl.owner, false)}
	switch nl.state {
	case proto.DirDirty:
		prev := nl.owner
		o.set(nl, proto.DirShared, -1)
		o.add(nl, prev)
		if prev != req {
			o.add(nl, req)
		}
	case proto.DirUnowned:
		o.set(nl, proto.DirDirty, req)
		res.Exclusive = true
	default:
		o.add(nl, req)
	}
	o.stats.CaseCounts[res.Case]++
	return res
}

func (o *naiveDir) Write(line uint64, home, req int) proto.WriteResult {
	nl := o.line(line)
	o.stats.Writes++
	res := proto.WriteResult{Owner: -1,
		Case: proto.Classify(req, home, nl.state, nl.owner, slices.Contains(nl.sharers, req))}
	switch nl.state {
	case proto.DirDirty:
		if nl.owner != req {
			res.Owner = nl.owner
			res.Invalidate = []int{nl.owner}
		} else {
			res.Case = proto.Upgrade
		}
	case proto.DirShared:
		for _, s := range nl.sharers {
			if s != req {
				res.Invalidate = append(res.Invalidate, s)
			}
		}
	}
	o.stats.Invalidations += uint64(len(res.Invalidate))
	nl.sharers = nil
	o.set(nl, proto.DirDirty, req)
	o.stats.CaseCounts[res.Case]++
	return res
}

func (o *naiveDir) Writeback(line uint64, owner int) {
	nl := o.line(line)
	o.stats.Writebacks++
	if nl.state == proto.DirDirty && nl.owner == owner {
		o.set(nl, proto.DirUnowned, -1)
		nl.sharers = nil
	}
}

func (o *naiveDir) Replace(line uint64, node int) {
	nl := o.lines[line]
	if nl == nil {
		return
	}
	switch nl.state {
	case proto.DirDirty:
		if nl.owner == node {
			o.set(nl, proto.DirUnowned, -1)
		}
	case proto.DirShared:
		if i := slices.Index(nl.sharers, node); i >= 0 {
			nl.sharers = slices.Delete(nl.sharers, i, i+1)
		}
		if len(nl.sharers) == 0 {
			o.set(nl, proto.DirUnowned, -1)
		}
	}
}

// held counts the lines whose record differs from a fresh entry.
func (o *naiveDir) held() int {
	n := 0
	for _, nl := range o.lines {
		if nl.state != proto.DirUnowned || len(nl.sharers) > 0 {
			n++
		}
	}
	return n
}

// FuzzDirectoryMatchesNaive runs a script of directory operations on
// proto.Directory and on naiveDir and requires the same results, the
// same Stats, the same State of every line and the same count of held
// records after every op. Each pair (a, b) of the script is one op on
// line a/5%8 from node b%4 with home b/4%4: Read, Write, Writeback,
// Replace or NoteStaleInval by a%5.
func FuzzDirectoryMatchesNaive(f *testing.F) {
	// A stale writeback and a stale replace leave a dirty line held.
	f.Add([]byte{1, 1, 2, 2, 3, 3, 0, 5, 5, 2})
	// Node 1 replaces out of a two-sharer list; node 2 still shares.
	f.Add([]byte{0, 1, 0, 2, 3, 1, 1, 3})
	// Three nodes share a line, two replace it, a write invalidates the
	// third; another line gains a sharer meanwhile.
	f.Add([]byte{0, 1, 0, 2, 5, 3, 0, 3, 3, 2, 3, 1, 1, 0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 513)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, script []byte) {
		const nodes, lines = 4, 8
		d := proto.NewDirectory(nodes, 0)
		o := &naiveDir{lines: map[uint64]*naiveLine{}}
		for i := 0; i+1 < len(script); i += 2 {
			a, b := script[i], script[i+1]
			line := uint64(a/5%lines) * 128
			node, home := int(b%nodes), int(b/nodes%nodes)
			switch a % 5 {
			case 0:
				if got, want := d.Read(line, home, node), o.Read(line, home, node); got != want {
					t.Fatalf("op %d, Read(%#x, %d, %d) = %+v, naive %+v", i/2, line, home, node, got, want)
				}
			case 1:
				got, want := d.Write(line, home, node), o.Write(line, home, node)
				if got.Case != want.Case || got.Owner != want.Owner || !slices.Equal(got.Invalidate, want.Invalidate) {
					t.Fatalf("op %d, Write(%#x, %d, %d) = %+v, naive %+v", i/2, line, home, node, got, want)
				}
			case 2:
				d.Writeback(line, node)
				o.Writeback(line, node)
			case 3:
				d.Replace(line, node)
				o.Replace(line, node)
			case 4:
				d.NoteStaleInval()
				o.stats.StaleInvals++
			}
			if got := d.Stats(); got != o.stats {
				t.Fatalf("after op %d: Stats %+v, naive %+v", i/2, got, o.stats)
			}
			for l := uint64(0); l < lines; l++ {
				st, owner, sharers := d.State(l * 128)
				want := o.lines[l*128]
				if want == nil {
					want = &naiveLine{state: proto.DirUnowned, owner: -1}
				}
				if st != want.state || owner != want.owner || !slices.Equal(sharers, want.sharers) {
					t.Fatalf("after op %d: State(%#x) = %v/%d/%v, naive %v/%d/%v",
						i/2, l*128, st, owner, sharers, want.state, want.owner, want.sharers)
				}
			}
			if got, want := d.Lines(), o.held(); got != want {
				t.Fatalf("after op %d: %d lines held, naive %d", i/2, got, want)
			}
		}
	})
}
