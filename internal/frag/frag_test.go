package frag

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"canec/internal/sim"
)

// Active reports whether a message is partially assembled.
func (r *Reassembler) Active() bool { return r.active }

// roundtrip fragments msg and feeds every frame to a fresh reassembler.
func roundtrip(t *testing.T, msg []byte) []byte {
	t.Helper()
	frames, err := Fragment(msg)
	if err != nil {
		t.Fatalf("Fragment(%d bytes): %v", len(msg), err)
	}
	var r Reassembler
	for i, fr := range frames {
		if len(fr) > 8 {
			t.Fatalf("frame %d exceeds 8 bytes: %d", i, len(fr))
		}
		out, err := r.Push(fr, sim.Time(i))
		if err != nil {
			t.Fatalf("Push frame %d/%d: %v", i, len(frames), err)
		}
		if out != nil {
			if i != len(frames)-1 {
				t.Fatalf("message completed early at frame %d/%d", i, len(frames))
			}
			return out
		}
	}
	t.Fatal("message never completed")
	return nil
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 13)
	}
	return b
}

func TestRoundtripSizes(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 13, 14, 100, 4095, 4096, 5000, 70000} {
		msg := pattern(n)
		got := roundtrip(t, msg)
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: roundtrip mismatch", n)
		}
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(msg []byte) bool {
		if len(msg) == 0 || len(msg) > 20000 {
			return true
		}
		frames, err := Fragment(msg)
		if err != nil {
			return false
		}
		var r Reassembler
		for i, fr := range frames {
			out, err := r.Push(fr, sim.Time(i))
			if err != nil {
				return false
			}
			if out != nil {
				return i == len(frames)-1 && bytes.Equal(out, msg)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentErrors(t *testing.T) {
	if _, err := Fragment(nil); err != errEmpty {
		t.Fatalf("Fragment(nil) err = %v", err)
	}
	if _, err := Fragment(make([]byte, maxMessage+1)); err != errTooLarge {
		t.Fatalf("oversized err = %v", err)
	}
}

func TestFrameCountMatchesFragment(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 13, 14, 20, 4095, 4096, 9999, 70000} {
		want := 0
		if n > 0 {
			frames, err := Fragment(pattern(n))
			if err != nil {
				t.Fatal(err)
			}
			want = len(frames)
		}
		if got := FrameCount(n); got != want {
			t.Fatalf("FrameCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSingleFrameLayout(t *testing.T) {
	frames, _ := Fragment([]byte{0xaa, 0xbb})
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
	if frames[0][0] != 0x02 {
		t.Fatalf("PCI byte = %#x", frames[0][0])
	}
}

func TestSequenceGapDetected(t *testing.T) {
	frames, _ := Fragment(pattern(100))
	var r Reassembler
	for i, fr := range frames {
		if i == 3 {
			continue // drop one consecutive frame
		}
		out, err := r.Push(fr, sim.Time(i))
		if i < 3 {
			if err != nil {
				t.Fatalf("early error: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatal("sequence gap not detected")
		}
		if !strings.Contains(err.Error(), "sequence gap") {
			t.Fatalf("wrong error: %v", err)
		}
		if out != nil {
			t.Fatal("message produced despite loss")
		}
		return
	}
}

func TestLostFirstFrame(t *testing.T) {
	frames, _ := Fragment(pattern(50))
	var r Reassembler
	_, err := r.Push(frames[1], 0) // consecutive without first
	if err == nil || !strings.Contains(err.Error(), "without first") {
		t.Fatalf("err = %v", err)
	}
}

func TestInterruptedReassembly(t *testing.T) {
	frames, _ := Fragment(pattern(50))
	var r Reassembler
	if _, err := r.Push(frames[0], 0); err != nil {
		t.Fatal(err)
	}
	// A new first frame mid-message is a protocol violation and resets.
	if _, err := r.Push(frames[0], 1); err == nil {
		t.Fatal("interrupting first frame accepted")
	}
	if r.Active() {
		t.Fatal("reassembler still active after violation")
	}
	// Same for a single frame.
	if _, err := r.Push(frames[0], 2); err != nil {
		t.Fatal(err)
	}
	single, _ := Fragment([]byte{1})
	if _, err := r.Push(single[0], 3); err == nil {
		t.Fatal("interrupting single frame accepted")
	}
}

func TestReassemblyTimeout(t *testing.T) {
	frames, _ := Fragment(pattern(100))
	r := Reassembler{Timeout: 10 * sim.Millisecond}
	if _, err := r.Push(frames[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Push(frames[1], sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Long silence, then a new message starts: the stale partial must be
	// discarded and the new message assembled cleanly.
	msg2 := pattern(20)
	frames2, _ := Fragment(msg2)
	at := sim.Time(5 * sim.Second)
	var got []byte
	for i, fr := range frames2 {
		out, err := r.Push(fr, at+sim.Time(i))
		if err != nil {
			t.Fatalf("new message after timeout: %v", err)
		}
		if out != nil {
			got = out
		}
	}
	if !bytes.Equal(got, msg2) {
		t.Fatal("message after timeout mismatched")
	}
}

// TestProgress: the first fragment opens the message with its declared
// length and keeps the head's payload bytes.
func TestProgress(t *testing.T) {
	frames, _ := Fragment(pattern(100))
	var r Reassembler
	if r.Active() {
		t.Fatal("idle reassembler active")
	}
	r.Push(frames[0], 0)
	if !r.Active() || r.want != 100 || len(r.buf) != 6 {
		t.Fatalf("progress after first frame = %d/%d", len(r.buf), r.want)
	}
}

func TestBadPayloads(t *testing.T) {
	var r Reassembler
	cases := [][]byte{
		nil,                            // empty
		{0x00},                         // single with length 0
		{0x05, 1, 2},                   // single length/payload mismatch
		{0x30, 1},                      // unknown PCI
		{0x10, 0x05, 1, 2, 3, 4},       // first frame announcing short message
		{0x10, 0x00, 0, 0},             // truncated extended first frame
		{0x10, 0x00, 0, 0, 0, 5, 0, 0}, // extended length in short range
	}
	for i, c := range cases {
		if _, err := r.Push(c, 0); err == nil {
			t.Fatalf("case %d accepted: %v", i, c)
		}
		if r.Active() {
			t.Fatalf("case %d left reassembler active", i)
		}
	}
}

func TestOverrunDetected(t *testing.T) {
	// 18-byte message: first frame carries 6, one consecutive carries 7,
	// leaving 5. A malicious/corrupt full 7-byte consecutive frame with the
	// correct sequence number then exceeds the announced length.
	frames, _ := Fragment(pattern(18))
	var r Reassembler
	if _, err := r.Push(frames[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Push(frames[1], 1); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 8)
	big[0] = 0x20 | 2
	if _, err := r.Push(big, 2); err == nil || !strings.Contains(err.Error(), "overrun") {
		t.Fatalf("overrun err = %v", err)
	}
	if r.Active() {
		t.Fatal("reassembler still active after overrun")
	}
}
