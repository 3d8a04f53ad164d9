package can

import (
	"fmt"

	"canec/internal/sim"
)

// MaxPayload is the CAN frame payload limit in bytes.
const MaxPayload = 8

// Frame is a CAN 2.0B extended data frame as handed to a controller.
type Frame struct {
	ID   ID
	Data []byte // 0..8 bytes
	// Tag is an opaque correlation annotation set by the submitter and
	// preserved through transmission and delivery. It is simulation
	// metadata only — it occupies no wire bits and never influences
	// arbitration, stuffing or timing. The observability layer uses it to
	// tie bus activity back to the middleware event that caused it; zero
	// means untagged (system frames, untraced traffic).
	Tag uint64
	// PublishedAt is the kernel time the middleware event the frame
	// carries was published (zero for other frames): simulation metadata,
	// like Tag.
	PublishedAt sim.Time
	// Origin is the federation header of an event a gateway republished
	// (zero for other frames): simulation metadata, like Tag.
	Origin Origin
}

// Origin is the federation header a gateway attaches to an event it
// republishes from a peer segment: where the event was first published,
// how many relay hops it has crossed and when its relay-deadline budget
// runs out. In one process it rides the frame as uncharged metadata; the
// relay protocol carries the same fields between processes. It holds no
// pointer, so a frame carrying it still copies without an allocation.
// The zero value (Segment 0) marks an event published on its own segment.
type Origin struct {
	End     sim.Time // the kernel time the relay-deadline budget runs out
	Segment uint8    // the origin segment, numbered from 1 by the republishing gateway
	Node    TxNode   // the original publisher on the origin segment
	Hops    uint8    // relay traversals so far
}

// Clone returns a deep copy of f.
func (f Frame) Clone() Frame {
	f.Data = append(make([]byte, 0, len(f.Data)), f.Data...)
	return f
}

func (f Frame) String() string {
	return fmt.Sprintf("frame{%v dlc=%d}", f.ID, len(f.Data))
}

// Validate reports an error for identifiers out of range or oversized
// payloads.
func (f Frame) Validate() error {
	if !f.ID.Valid() {
		return fmt.Errorf("can: identifier %#x exceeds 29 bits", uint32(f.ID))
	}
	if len(f.Data) > MaxPayload {
		return fmt.Errorf("can: payload %d bytes exceeds %d", len(f.Data), MaxPayload)
	}
	return nil
}

// Frame-format constants for CAN 2.0B extended data frames.
//
// The stuffed region runs from the start-of-frame bit through the 15-bit
// CRC sequence: SOF(1) + ID-A(11) + SRR(1) + IDE(1) + ID-B(18) + RTR(1) +
// r1(1) + r0(1) + DLC(4) + data(8·s) + CRC(15) = 54 + 8·s bits. The tail —
// CRC delimiter(1) + ACK slot(1) + ACK delimiter(1) + EOF(7) + inter-frame
// space(3) — is never stuffed and adds 13 bits.
const (
	extStuffedOverheadBits = 54
	frameTailBits          = 13
)

// maxUnstuffedBits and maxStuffedBits bound the codec buffer sizes: a
// full 8-byte payload yields 54+64 = 118 pre-stuffing bits, and stuffing
// inserts at most one bit per four (⌊(118−1)/4⌋ = 29).
const (
	maxUnstuffedBits = extStuffedOverheadBits + 8*MaxPayload
	maxStuffedBits   = maxUnstuffedBits + (maxUnstuffedBits-1)/4
)

// MaxStuffedBits is the worst-case stuffed bit count of one extended
// data frame's stuffed region, and MaxStuffedBytes the same stream packed
// eight bits per byte — the sizing bounds for buffers held by transports
// that carry encoded frames (internal/relay).
const (
	MaxStuffedBits  = maxStuffedBits
	MaxStuffedBytes = (MaxStuffedBits + 7) / 8
)

// stuffBits returns the exact number of stuff bits the CAN bit-stuffing
// rule inserts for this frame: after five consecutive bits of equal value
// in the stuffed region, a complementary bit is inserted (and itself
// participates in subsequent runs).
func stuffBits(f Frame) int {
	var buf rawBuf
	return countStuff(packExt(&buf, f))
}

// WireBits returns the exact on-wire length of the frame in bit times,
// including stuff bits, CRC/ACK/EOF overhead and the 3-bit inter-frame
// space.
func WireBits(f Frame) int {
	return extStuffedOverheadBits + 8*len(f.Data) + stuffBits(f) + frameTailBits
}

// WorstCaseBits returns the classical worst-case extended-frame length in
// bit times for a payload of s bytes (Tindell's bound with g = 54 stuffed
// overhead bits): g + 8s + 13 + ⌊(g + 8s − 1)/4⌋.
//
// For s = 8 this is 160 bit times — 160 µs at 1 Mbit/s. The paper quotes
// 154 µs for "the longest CAN message"; the 6-bit delta comes from a less
// pessimistic stuffing assumption. ΔT_wait in this repository defaults to
// the safe 160-bit bound (configurable in calendar.Config).
func WorstCaseBits(s int) int {
	g := extStuffedOverheadBits
	return g + 8*s + frameTailBits + (g+8*s-1)/4
}

// MinFrameBits returns the minimum possible extended frame length for a
// payload of s bytes (no stuff bits).
func MinFrameBits(s int) int {
	return extStuffedOverheadBits + 8*s + frameTailBits
}

// ErrorOverheadBits is the bus time consumed by an error signalling
// sequence: error flag (6) + up to 6 superposed echo flag bits + error
// delimiter (8) + intermission (3). We charge the worst case.
const ErrorOverheadBits = 23

// BitTime converts a bit count to virtual time at the given bit rate.
func BitTime(bits int, bitRate int) sim.Duration {
	// One bit lasts 1e9/bitRate nanoseconds. For the standard 1 Mbit/s this
	// is exactly 1 µs per bit.
	return sim.Duration(int64(bits) * int64(sim.Second) / int64(bitRate))
}
