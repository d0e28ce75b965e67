package magic

import (
	"testing"

	"flashsim/internal/sim"
)

func TestHandlerOccupancySerializes(t *testing.T) {
	c := New(DefaultConfig())
	d1 := c.RunHandler(0, HNILocalGet, 0)
	d2 := c.RunHandler(0, HNILocalGet, 0)
	if d2 <= d1 {
		t.Fatalf("PP must serialize handlers: %d vs %d", d1, d2)
	}
	want := sim.Clock75.Cycles(uint64(RTLOccupancies()[HNILocalGet]))
	if d1 != want {
		t.Fatalf("first handler done at %d, want %d", d1, want)
	}
}

func TestOccupancyOffIsPureLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModelOccupancy = false
	c := New(cfg)
	d1 := c.RunHandler(0, HNILocalGet, 0)
	d2 := c.RunHandler(0, HNILocalGet, 0)
	if d1 != d2 {
		t.Fatalf("latency-only PP must not contend: %d vs %d", d1, d2)
	}
}

func TestExtraCycles(t *testing.T) {
	c := New(DefaultConfig())
	base := c.RunHandler(0, HNIInval, 0)
	c2 := New(DefaultConfig())
	ext := c2.RunHandler(0, HNIInval, 10)
	if ext != base+sim.Clock75.Cycles(10) {
		t.Fatalf("extra cycles: %d vs %d", ext, base)
	}
}

func TestMemoryBankContention(t *testing.T) {
	c := New(DefaultConfig()) // 4 banks, line-interleaved (pa>>7)
	d1 := c.Memory(0, 0<<7, true)
	d2 := c.Memory(0, 4<<7, true) // same bank (4 mod 4 == 0)
	d3 := c.Memory(0, 1<<7, true) // different bank
	if d2 <= d1 {
		t.Fatalf("same bank must serialize: %d vs %d", d1, d2)
	}
	if d3 != d1 {
		t.Fatalf("different banks must not contend: %d vs %d", d3, d1)
	}
}

func TestMemoryCriticalWordVsFullLine(t *testing.T) {
	c := New(DefaultConfig())
	word := c.Memory(0, 0, false)
	c2 := New(DefaultConfig())
	line := c2.Memory(0, 0, true)
	if line <= word {
		t.Fatalf("full line (%d) must exceed first word (%d)", line, word)
	}
	if word != sim.NS(140) {
		t.Fatalf("first word latency %d, want %d", word, sim.NS(140))
	}
}

func TestInboxOutbox(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InboxTicks = 10
	cfg.OutboxTicks = 20
	c := New(cfg)
	if c.Inbox(100) != 110 || c.Outbox(100) != 120 {
		t.Fatal("inbox/outbox latency")
	}
}

func TestHandlerNames(t *testing.T) {
	for h := Handler(0); h < NumHandlers; h++ {
		if h.String() == "" || h.String() == "handler(?)" {
			t.Errorf("handler %d unnamed", h)
		}
	}
}
