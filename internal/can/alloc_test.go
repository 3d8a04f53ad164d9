package can

import (
	"testing"

	"canec/internal/sim"
)

// WireBits runs once per transmission attempt; its raw-form scratch lives
// on the stack.
func TestWireBitsZeroAllocs(t *testing.T) {
	f := Frame{ID: MakeID(7, 3, 0x123), Data: []byte{0, 0, 0xff, 0xff, 0x55, 0xaa, 0, 1}}
	want := WireBits(f)
	if per := testing.AllocsPerRun(200, func() {
		if WireBits(f) != want {
			t.Fatal("WireBits not deterministic")
		}
	}); per != 0 {
		t.Fatalf("WireBits: %.2f allocs, want 0", per)
	}
}

// The relay encodes and decodes every forwarded chunk: neither direction
// allocates when the caller brings the output buffer.
func TestCodecZeroAllocs(t *testing.T) {
	f := Frame{ID: MakeID(7, 3, 0x123), Data: []byte{0, 0, 0xff, 0xff, 0x55, 0xaa, 0, 1}}
	var c Codec
	buf := make([]byte, 0, MaxStuffedBytes)
	var nbits int
	if per := testing.AllocsPerRun(200, func() {
		buf, nbits = c.Encode(buf[:0], f)
	}); per != 0 {
		t.Fatalf("Codec.Encode: %.2f allocs, want 0", per)
	}
	if per := testing.AllocsPerRun(200, func() {
		if _, err := c.Decode(buf, nbits); err != nil {
			t.Fatal(err)
		}
	}); per != 0 {
		t.Fatalf("Codec.Decode: %.2f allocs, want 0", per)
	}
}

// One frame through an otherwise idle bus allocates nothing: the request
// record, which holds the payload copy, comes back from the bus's free
// list, and the arbitration round and the completion are bound callbacks.
func TestBusFrameAllocsPinned(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus(k, 0)
	tx := b.Attach(1)
	b.Attach(2).AddFilter(0x7ff) // a receiver that filters the frame out
	f := Frame{ID: MakeID(7, 1, 0x123), Data: []byte{1, 2, 3, 4}}
	cycle := func() {
		tx.Submit(f, SubmitOpts{})
		k.RunUntilIdle()
	}
	cycle()
	if per := testing.AllocsPerRun(200, cycle); per != 0 {
		t.Fatalf("submit→arbitrate→complete: %.2f allocs, want 0", per)
	}
	if got := b.Stats().FramesOK; got != 202 {
		t.Fatalf("FramesOK = %d", got)
	}
}

// Delivering one transmission to seven receivers hands them all the
// request's frame: the cycle reuses the request record and costs nothing
// per receiver.
func TestBusFanOutAllocsPinned(t *testing.T) {
	const receivers = 7
	k, b := rig(receivers+1, 1)
	got := 0
	for i := 1; i <= receivers; i++ {
		b.Controller(i).OnReceive = func(Frame, sim.Time) { got++ }
	}
	sent := 0
	opts := SubmitOpts{Done: func(bool, sim.Time) { sent++ }}
	f := Frame{ID: MakeID(7, 0, 0x123), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	cycle := func() {
		b.Controller(0).Submit(f, opts)
		k.RunUntilIdle()
	}
	cycle()
	if per := testing.AllocsPerRun(200, cycle); per != 0 {
		t.Fatalf("submit→deliver to %d receivers: %.2f allocs, want 0", receivers, per)
	}
	if sent != 202 || got != 202*receivers {
		t.Fatalf("sent %d, delivered %d", sent, got)
	}
}
