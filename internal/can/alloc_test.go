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

// One frame through an otherwise idle bus costs the controller's request
// record and its private payload copy — nothing for scheduling the
// arbitration round or the completion.
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
	if per := testing.AllocsPerRun(200, cycle); per > 2 {
		t.Fatalf("submit→arbitrate→complete: %.2f allocs, want <= 2", per)
	}
	if got := b.Stats().FramesOK; got != 202 {
		t.Fatalf("FramesOK = %d", got)
	}
}
