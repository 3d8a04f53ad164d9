// Package frag implements the fragmentation protocol that lets non
// real-time event channels carry bulk payloads — memory images, electronic
// data sheets, test patterns (paper §2.2.3) — as a chain of 8-byte CAN
// frames. The wire format follows the proven ISO-TP layout: a one-byte
// protocol-control header on every fragment, a 4-bit rolling sequence
// number on consecutive frames (CAN guarantees in-order delivery per
// sender, so 4 bits suffice to detect gaps), and an escape form for
// payloads beyond the 12-bit length field.
package frag

import (
	"encoding/binary"
	"errors"
	"fmt"

	"canec/internal/sim"
)

// Protocol-control (PCI) types, high nibble of byte 0.
const (
	pciSingle = 0x0 // single-frame message, low nibble = length (1..7)
	pciFirst  = 0x1 // first frame, 12-bit length follows
	pciCons   = 0x2 // consecutive frame, low nibble = sequence mod 16
)

const (
	maxShortLen = 0xfff // largest payload representable in a 12-bit first frame
	// maxMessage is the largest payload Fragment accepts. The 32-bit
	// escape form could carry more; 16 MiB is far beyond any plausible
	// field-bus bulk transfer and bounds reassembly memory.
	maxMessage = 16 << 20
)

// errTooLarge is returned for messages beyond maxMessage.
var errTooLarge = errors.New("frag: message exceeds maximum size")

// errEmpty is returned for empty messages; the event channel model always
// carries at least a content byte, so this is a caller bug.
var errEmpty = errors.New("frag: empty message")

// Chain is a cursor over the fragments of one message: each Next writes
// the following fragment into a caller-owned 8-byte buffer, so a sender
// holds the message and the cursor, never a slice per frame. The message
// must not change while the chain is being sent.
//
// Layouts:
//
//	single      [0x0l  d0..d{l-1}]                        l = 1..7
//	first       [0x1h  ll  d0..d5]                        12-bit length hl·256+ll
//	first-ext   [0x10  00  L3 L2 L1 L0  d0 d1]            32-bit length, len > 0xfff
//	consecutive [0x2s  d0..d6]                            s = seq mod 16, starts at 1
type Chain struct {
	msg []byte
	off int  // bytes of msg already written into fragments
	seq byte // sequence number of the next consecutive frame
}

// NewChain returns the cursor over msg's fragments. It keeps msg, not a
// copy.
func NewChain(msg []byte) (Chain, error) {
	if len(msg) == 0 {
		return Chain{}, errEmpty
	}
	if len(msg) > maxMessage {
		return Chain{}, errTooLarge
	}
	return Chain{msg: msg}, nil
}

// Done reports whether every fragment has been written.
func (c *Chain) Done() bool { return c.off == len(c.msg) }

// Next writes the next fragment into buf and returns it (a slice of buf).
// It must not be called once Done.
func (c *Chain) Next(buf *[8]byte) []byte {
	msg := c.msg
	if c.off > 0 {
		buf[0] = pciCons<<4 | c.seq&0x0f
		n := copy(buf[1:], msg[c.off:])
		c.off += n
		c.seq++
		return buf[:1+n]
	}
	switch {
	case len(msg) <= 7:
		buf[0] = pciSingle<<4 | byte(len(msg))
		c.off = copy(buf[1:], msg)
		return buf[:1+c.off]
	case len(msg) <= maxShortLen:
		buf[0] = pciFirst<<4 | byte(len(msg)>>8)
		buf[1] = byte(len(msg))
		c.off = copy(buf[2:], msg)
	default:
		buf[0] = pciFirst << 4
		buf[1] = 0
		binary.BigEndian.PutUint32(buf[2:6], uint32(len(msg)))
		c.off = copy(buf[6:], msg)
	}
	c.seq = 1
	return buf[:]
}

// Fragment splits msg into CAN payloads, one slice per frame: the
// Chain's fragments, collected.
func Fragment(msg []byte) ([][]byte, error) {
	c, err := NewChain(msg)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, 0, FrameCount(len(msg)))
	var buf [8]byte
	for !c.Done() {
		frames = append(frames, append([]byte(nil), c.Next(&buf)...))
	}
	return frames, nil
}

// FrameCount returns how many CAN frames a payload of n bytes takes,
// without building them. Used by admission and bench arithmetic.
func FrameCount(n int) int {
	switch {
	case n <= 0:
		return 0
	case n <= 7:
		return 1
	case n <= maxShortLen:
		return 1 + ceilDiv(n-6, 7)
	default:
		return 1 + ceilDiv(n-2, 7)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Error describes a reassembly failure.
type Error struct {
	Reason string
}

func (e *Error) Error() string { return "frag: " + e.Reason }

// Reassembler rebuilds one sender/channel stream of fragments into
// messages. CAN delivers frames of one sender in order, so a sequence gap
// means frames were lost to an inconsistent omission; the partial message
// is dropped and reported.
type Reassembler struct {
	// Timeout aborts a partially received message when no fragment
	// arrives for this long (0 disables).
	Timeout sim.Duration

	buf      []byte
	want     int
	seq      byte
	lastAt   sim.Time
	active   bool
	skipping bool
}

// Push processes one received payload at time at. It returns the completed
// message when the payload finishes one, nil otherwise. A non-nil error
// reports a protocol violation or detected loss; the reassembler is then
// reset and ready for the next message.
func (r *Reassembler) Push(data []byte, at sim.Time) ([]byte, error) {
	if len(data) == 0 {
		return nil, &Error{"empty payload"}
	}
	if r.active && r.Timeout > 0 && at-r.lastAt > r.Timeout {
		r.reset()
		// The stale partial message is silently discarded; the incoming
		// fragment is processed fresh below (it may be a new first frame).
	}
	r.lastAt = at
	pci := data[0] >> 4
	switch pci {
	case pciSingle:
		if r.active {
			r.reset()
			return nil, &Error{"single frame interrupting reassembly"}
		}
		n := int(data[0] & 0x0f)
		if n == 0 || n > 7 || n != len(data)-1 {
			return nil, &Error{fmt.Sprintf("bad single-frame length %d (payload %d)", n, len(data)-1)}
		}
		r.skipping = false
		out := make([]byte, n)
		copy(out, data[1:])
		return out, nil

	case pciFirst:
		if r.active {
			r.reset()
			return nil, &Error{"first frame interrupting reassembly"}
		}
		want := int(data[0]&0x0f)<<8 | int(data[1])
		if want == 0 {
			// Escape form: 32-bit length.
			if len(data) < 8 {
				return nil, &Error{"truncated extended first frame"}
			}
			want = int(binary.BigEndian.Uint32(data[2:6]))
			if want <= maxShortLen || want > maxMessage {
				return nil, &Error{fmt.Sprintf("implausible extended length %d", want)}
			}
			r.start(want, data[6:])
		} else {
			if want <= 7 {
				return nil, &Error{fmt.Sprintf("first frame for short message %d", want)}
			}
			r.start(want, data[2:])
		}
		return nil, nil

	case pciCons:
		if !r.active {
			if r.skipping {
				// Tail of a message already abandoned after a detected
				// loss: discard silently until the next first/single frame,
				// as ISO-TP receivers do with unexpected consecutive
				// frames.
				return nil, nil
			}
			return nil, &Error{"consecutive frame without first frame"}
		}
		seq := data[0] & 0x0f
		if seq != r.seq {
			r.reset()
			r.skipping = true
			return nil, &Error{fmt.Sprintf("sequence gap: got %d, want %d (frame lost)", seq, r.seq)}
		}
		r.seq = (r.seq + 1) & 0x0f
		r.buf = append(r.buf, data[1:]...)
		if len(r.buf) > r.want {
			r.reset()
			return nil, &Error{"overrun: more data than announced"}
		}
		if len(r.buf) == r.want {
			out := r.buf
			r.buf = nil
			r.reset()
			return out, nil
		}
		return nil, nil

	default:
		return nil, &Error{fmt.Sprintf("unknown PCI type %#x", pci)}
	}
}

func (r *Reassembler) start(want int, head []byte) {
	r.active = true
	r.skipping = false
	r.want = want
	r.seq = 1
	r.buf = make([]byte, 0, want)
	r.buf = append(r.buf, head...)
}

func (r *Reassembler) reset() {
	r.active = false
	r.want = 0
	r.seq = 0
	r.buf = nil
}
