package can

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire-level codec. A frame's stuffed region (SOF through the CRC
// sequence) is handled eight bits per byte, MSB first, in two forms:
//
//   - raw: the unstuffed bits, laid into a rawBuf so that every field
//     boundary the codec cares about falls on a byte boundary. One zero pad
//     bit precedes the 39 header bits SOF…DLC (five bytes), the payload
//     follows byte for byte, and the 15 CRC bits plus one trailing pad bit
//     close it (two bytes). The leading pad leaves the CRC unchanged — the
//     register starts at zero and shifting a zero into a zero register is
//     the identity — so CRC-15 runs a byte a step from crcTab over the
//     buffer as it stands. The trailing pad is the complement of the last
//     CRC bit, so it never completes a run of five and the stuffing walk
//     can run a byte a step from stuffTab to the end of the buffer.
//   - stuffed: the bits as they appear on the wire, which is what
//     Codec.Encode produces and Codec.Decode consumes (the relay transport
//     ships it as is). Neither pad bit is part of it.
//
// The simulator's timing path needs only the stuffed *length* (WireBits);
// the full codec closes the loop for conformance testing — a frame must
// survive encode→decode bit-exactly — and gives the relay transport
// genuine CAN bit streams. The bit-serial formulation of the same
// rules, one bit per byte element as the CAN specification states them, is
// the oracle in reference_test.go.

// ErrWire is wrapped by all decode errors.
var ErrWire = errors.New("can: wire decode error")

// crc15Poly is the CAN CRC-15 generator polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
const crc15Poly = 0x4599

// Raw-form geometry (see the file comment).
const (
	extHeaderBytes = 5 // pad(1) + SOF…DLC(39)
	crcBytes       = 2 // CRC(15) + pad(1)
)

// rawBuf holds the raw form of any data frame: 5+8+2 bytes at most.
type rawBuf [16]byte

// The stuffing automaton. A live state is (previous wire bit, length of
// the run it ends, 1..4) numbered prev<<2 | (run-1); a run of five never
// survives a step because the stuff bit that follows it starts a new run
// of one. The start state has no previous bit and skips the leading pad
// bit of the first raw byte.
const (
	stuffStartExt = 8
	stuffStates   = 9
)

// stuffEntry is one automaton transition over a raw byte:
//
//	bits 15..6  the stuffed output, right-aligned in 8−skipped+count bits
//	bits  5..4  count of stuff bits inserted (0..2)
//	bits  3..0  next state
type stuffEntry uint16

func (e stuffEntry) out() uint64 { return uint64(e >> 6) }
func (e stuffEntry) count() int  { return int(e >> 4 & 3) }
func (e stuffEntry) next() int   { return int(e & 15) }

var (
	// crcTab[b] is the CRC-15 register after shifting byte b into a zero
	// register.
	crcTab [256]uint16
	// stuffTab[state][b] is the transition for raw byte b.
	stuffTab [stuffStates][256]stuffEntry
)

// Both tables are generated by the bit-serial rules themselves.
func init() {
	for b := 0; b < 256; b++ {
		var crc uint16
		for i := 7; i >= 0; i-- {
			// Bosch CAN 2.0 §3.1.1: CRCNXT = NXTBIT xor CRC_RG(14).
			nxt := uint16(b>>i)&1 ^ crc>>14
			crc = crc << 1 & 0x7fff
			if nxt == 1 {
				crc ^= crc15Poly
			}
		}
		crcTab[b] = crc
		for st := range stuffTab {
			stuffTab[st][b] = stuffByte(st, byte(b))
		}
	}
}

// stuffByte applies the stuffing rule to one raw byte entered in state st:
// after five consecutive equal wire bits a complementary bit is inserted,
// and that bit itself starts the next run.
func stuffByte(st int, b byte) stuffEntry {
	prev, run, skip := uint16(st>>2), st&3+1, 0
	if st == stuffStartExt {
		run, skip = 0, 1
	}
	var out, count uint16
	for i := 7 - skip; i >= 0; i-- {
		bit := uint16(b>>i) & 1
		if run > 0 && bit == prev {
			run++
		} else {
			prev, run = bit, 1
		}
		out = out<<1 | bit
		if run == 5 {
			prev, run = bit^1, 1
			out = out<<1 | prev
			count++
		}
	}
	return stuffEntry(out<<6 | count<<4 | prev<<2 | uint16(run-1))
}

// rawCRC computes the CAN CRC-15 over whole raw bytes.
func rawCRC(raw []byte) uint16 {
	var crc uint16
	for _, b := range raw {
		crc = (crc<<8 ^ crcTab[byte(crc>>7)^b]) & 0x7fff
	}
	return crc
}

// packExt lays the raw form of an extended data frame into buf — the
// padded header, the payload, the CRC sequence over both and the trailing
// pad bit — and returns the bytes used. Identifier bits above 29 are
// ignored; a payload over MaxPayload is a caller bug (Frame.Validate
// reports it).
func packExt(buf *rawBuf, f Frame) []byte {
	if len(f.Data) > MaxPayload {
		panic(fmt.Sprintf("can: payload %d bytes exceeds %d", len(f.Data), MaxPayload))
	}
	// pad SOF | ID-A(11) | SRR IDE (recessive) | ID-B(18) | RTR r1 r0 | DLC(4)
	id := uint64(f.ID)
	h := (id>>18&0x7ff)<<27 | 3<<25 | (id&0x3ffff)<<7 | uint64(len(f.Data))
	binary.BigEndian.PutUint64(buf[:], h<<(64-8*extHeaderBytes))
	n := extHeaderBytes + copy(buf[extHeaderBytes:], f.Data)
	crc := rawCRC(buf[:n])
	binary.BigEndian.PutUint16(buf[n:], crc<<1|(^crc&1))
	return buf[:n+crcBytes]
}

// countStuff walks the automaton over a raw form and returns the number
// of stuff bits its wire form carries.
func countStuff(raw []byte) int {
	st, n := stuffStartExt, 0
	for _, b := range raw {
		e := stuffTab[st][b]
		n += e.count()
		st = e.next()
	}
	return n
}

// Codec encodes and decodes frames in the packed stuffed form, for hot
// paths that frame thousands of messages per second (the relay
// transport). Neither direction allocates. A Codec is not safe for
// concurrent use; the Frame returned by Decode aliases the codec's
// internal payload buffer and is only valid until the next Decode call —
// clone it (or copy Data) to retain it.
type Codec struct {
	data [MaxPayload]byte
}

// Encode appends the frame's stuffed wire bits to dst — from the
// start-of-frame bit through the CRC sequence, eight bits per byte, MSB
// first, the last byte zero-filled — and returns the extended slice and
// the bit count. The constant-form tail (CRC delimiter, ACK, EOF, IFS)
// carries no information and is omitted.
func (c *Codec) Encode(dst []byte, f Frame) ([]byte, int) {
	var buf rawBuf
	raw := packExt(&buf, f)
	var acc uint64 // wire bits not yet flushed, in the low nacc bits
	nacc, total := 0, 0
	st := stuffStartExt
	for i, b := range raw {
		e := stuffTab[st][b]
		st = e.next()
		out, n := e.out(), 8+e.count()
		if i == 0 {
			n-- // the start state dropped the leading pad
		}
		if i == len(raw)-1 {
			out, n = out>>1, n-1 // the trailing pad is the last bit out
		}
		acc = acc<<n | out
		nacc += n
		total += n
		for nacc >= 8 {
			nacc -= 8
			dst = append(dst, byte(acc>>nacc))
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc<<(8-nacc)))
	}
	return dst, total
}

// Decode parses the first nbits bits of a packed stuffed stream produced
// by Encode back into a frame, validating the stuffing discipline, the
// fixed-form fields and the CRC.
func (c *Codec) Decode(packed []byte, nbits int) (Frame, error) {
	if nbits < 0 || len(packed)*8 < nbits {
		return Frame{}, fmt.Errorf("%w: %d packed bytes hold fewer than %d bits", ErrWire, len(packed), nbits)
	}
	// Destuff into the raw form, behind its leading pad bit. A six-bit run
	// (which on a real bus signals an error frame, not data) fails here.
	var raw rawBuf
	var acc byte // the raw byte being filled
	n := 1
	var prev byte = 2
	run := 0
	for i := 0; i < nbits; i++ {
		b := packed[i>>3] >> (7 - i&7) & 1
		if run == 5 {
			// This bit is a stuff bit: it must complement the run.
			if b == prev {
				return Frame{}, fmt.Errorf("%w: stuff violation at bit %d", ErrWire, i)
			}
			prev, run = b, 1
			continue
		}
		if b == prev {
			run++
		} else {
			prev, run = b, 1
		}
		if n > maxUnstuffedBits {
			return Frame{}, fmt.Errorf("%w: more than %d frame bits", ErrWire, maxUnstuffedBits)
		}
		acc = acc<<1 | b
		n++
		if n&7 == 0 {
			raw[n>>3-1] = acc
		}
	}
	if run == 5 {
		return Frame{}, fmt.Errorf("%w: stream ends before its last stuff bit", ErrWire)
	}
	raw[n>>3] = acc << (8 - n&7) // the bits of a last, partial byte
	n--                          // the pad is not a frame bit
	// Minimum frame: SOF..DLC (39 bits) + CRC (15).
	if n < extStuffedOverheadBits {
		return Frame{}, fmt.Errorf("%w: truncated frame (%d bits)", ErrWire, n)
	}
	h := binary.BigEndian.Uint64(raw[:]) >> 24
	switch {
	case h>>38&1 != 0:
		return Frame{}, fmt.Errorf("%w: SOF not dominant", ErrWire)
	case h>>26&1 != 1:
		return Frame{}, fmt.Errorf("%w: SRR not recessive", ErrWire)
	case h>>25&1 != 1:
		return Frame{}, fmt.Errorf("%w: IDE not recessive (standard frames unsupported)", ErrWire)
	case h>>6&1 != 0:
		return Frame{}, fmt.Errorf("%w: RTR set (remote frames unsupported)", ErrWire)
	}
	dlc := int(h & 15) // r1, r0 are not checked
	if dlc > MaxPayload {
		return Frame{}, fmt.Errorf("%w: DLC %d", ErrWire, dlc)
	}
	if n != extStuffedOverheadBits+8*dlc {
		return Frame{}, fmt.Errorf("%w: length %d bits does not match DLC %d", ErrWire, n, dlc)
	}
	// The CRC must be validated over the *received* bits (everything
	// before the CRC sequence), not over a re-encoding of the decoded
	// fields: otherwise deviations in bits the decoder ignores (reserved
	// bits) would slip through.
	end := extHeaderBytes + dlc
	gotCRC := binary.BigEndian.Uint16(raw[end:]) >> 1
	if wantCRC := rawCRC(raw[:end]); gotCRC != wantCRC {
		return Frame{}, fmt.Errorf("%w: CRC mismatch %#x != %#x", ErrWire, gotCRC, wantCRC)
	}
	copy(c.data[:], raw[extHeaderBytes:end])
	return Frame{ID: ID((h>>27&0x7ff)<<18 | h>>7&0x3ffff), Data: c.data[:dlc]}, nil
}
