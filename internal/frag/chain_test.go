package frag

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"canec/internal/sim"
)

// fragmentOracle is the slice-per-frame encoder Chain replaced, kept as
// the reference its fragments must match byte for byte.
func fragmentOracle(msg []byte) ([][]byte, error) {
	if len(msg) == 0 {
		return nil, errEmpty
	}
	if len(msg) > maxMessage {
		return nil, errTooLarge
	}
	if len(msg) <= 7 {
		out := make([]byte, 1+len(msg))
		out[0] = pciSingle<<4 | byte(len(msg))
		copy(out[1:], msg)
		return [][]byte{out}, nil
	}
	var frames [][]byte
	var rest []byte
	if len(msg) <= maxShortLen {
		first := make([]byte, 8)
		first[0] = pciFirst<<4 | byte(len(msg)>>8)
		first[1] = byte(len(msg))
		copy(first[2:], msg[:6])
		rest = msg[6:]
		frames = append(frames, first)
	} else {
		first := make([]byte, 8)
		first[0] = pciFirst << 4
		first[1] = 0
		binary.BigEndian.PutUint32(first[2:], uint32(len(msg)))
		copy(first[6:], msg[:2])
		rest = msg[2:]
		frames = append(frames, first)
	}
	seq := byte(1)
	for len(rest) > 0 {
		n := len(rest)
		if n > 7 {
			n = 7
		}
		fr := make([]byte, 1+n)
		fr[0] = pciCons<<4 | seq&0x0f
		copy(fr[1:], rest[:n])
		rest = rest[n:]
		frames = append(frames, fr)
		seq++
	}
	return frames, nil
}

// chainFrames drains a Chain over msg, copying each fragment out of the
// one stack buffer every Next reuses.
func chainFrames(t *testing.T, msg []byte) [][]byte {
	t.Helper()
	c, err := NewChain(msg)
	if err != nil {
		t.Fatalf("NewChain(%d bytes): %v", len(msg), err)
	}
	var frames [][]byte
	var buf [8]byte
	for !c.Done() {
		fr := c.Next(&buf)
		if len(fr) == 0 || len(fr) > 8 {
			t.Fatalf("fragment %d of a %d-byte message has %d bytes", len(frames), len(msg), len(fr))
		}
		frames = append(frames, append([]byte(nil), fr...))
	}
	return frames
}

func sameFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Chain and Fragment write exactly the oracle's fragments: every
// single-frame length, both first-frame forms on either side of the
// 12-bit boundary, and a chain long enough to wrap the sequence byte.
func TestChainMatchesOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 0xfff, 0x1000, 4 << 10,
		6 + 7*300, 2 + 7*600 + 3}
	for _, n := range sizes {
		msg := pattern(n)
		want, err := fragmentOracle(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := chainFrames(t, msg); !sameFrames(got, want) {
			t.Fatalf("%d bytes: Chain fragments differ from the oracle", n)
		}
		got, err := Fragment(msg)
		if err != nil || !sameFrames(got, want) {
			t.Fatalf("%d bytes: Fragment differs from the oracle (err %v)", n, err)
		}
		if len(want) != FrameCount(n) {
			t.Fatalf("%d bytes: %d fragments, FrameCount says %d", n, len(want), FrameCount(n))
		}
	}
	if n := FrameCount(6 + 7*300); n <= 256 {
		t.Fatalf("the long case has %d fragments and does not wrap the sequence byte", n)
	}
}

func TestChainErrorsMatchOracle(t *testing.T) {
	for _, msg := range [][]byte{nil, {}, make([]byte, maxMessage+1)} {
		_, want := fragmentOracle(msg)
		if _, err := NewChain(msg); err != want {
			t.Fatalf("NewChain(%d bytes) err = %v, want %v", len(msg), err, want)
		}
		if _, err := Fragment(msg); err != want {
			t.Fatalf("Fragment(%d bytes) err = %v, want %v", len(msg), err, want)
		}
	}
	if _, err := NewChain(make([]byte, maxMessage)); err != nil {
		t.Fatalf("NewChain(maxMessage) err = %v", err)
	}
}

// Whatever the message, a Reassembler fed the Chain's fragments returns
// it on the last one and not before.
func TestChainReassemblesProperty(t *testing.T) {
	f := func(msg []byte, pad uint16) bool {
		if len(msg) == 0 {
			return true
		}
		if pad%3 == 0 { // one case in three crosses the 12-bit boundary
			msg = append(msg, pattern(0xfff)...)
		}
		c, err := NewChain(msg)
		if err != nil {
			return false
		}
		var r Reassembler
		var buf [8]byte
		for i := 0; !c.Done(); i++ {
			out, err := r.Push(c.Next(&buf), sim.Time(i))
			if err != nil {
				return false
			}
			if out != nil {
				return c.Done() && bytes.Equal(out, msg)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Draining a chain allocates nothing: the fragments live in the caller's
// buffer.
func TestChainZeroAllocs(t *testing.T) {
	msg := pattern(4 << 10)
	var buf [8]byte
	per := testing.AllocsPerRun(100, func() {
		c, _ := NewChain(msg)
		for !c.Done() {
			c.Next(&buf)
		}
	})
	if per != 0 {
		t.Fatalf("draining a 4 KiB chain: %.2f allocs, want 0", per)
	}
}
