package can

import "fmt"

// The bit-serial codec: one bit per byte element (values 0/1), every rule
// applied a bit at a time the way the CAN specification states it. It was
// the production codec before the packed, table-driven one in wire.go and
// is kept here unchanged as the oracle the differential tests compare
// against.

// crc15 computes the CAN CRC over a bit sequence (one bit per byte element,
// values 0 or 1), as specified in Bosch CAN 2.0 §3.1.1.
func crc15(bits []byte) uint16 {
	var crc uint16
	for _, b := range bits {
		bit14 := (crc >> 14) & 1
		crc <<= 1
		if b^byte(bit14) == 1 {
			crc ^= crc15Poly
		}
		crc &= 0x7fff
	}
	return crc
}

// appendUnstuffedBits appends the exact pre-stuffing bit sequence of the
// frame's stuffed region (SOF through CRC sequence) to dst.
func appendUnstuffedBits(dst []byte, f Frame) []byte {
	bits := dst
	base := len(dst)
	put := func(v uint32, n int) {
		for i := n - 1; i >= 0; i-- {
			bits = append(bits, byte((v>>uint(i))&1))
		}
	}
	put(0, 1)                     // SOF (dominant)
	put(uint32(f.ID)>>18, 11)     // ID-A: bits 28..18
	put(1, 1)                     // SRR (recessive)
	put(1, 1)                     // IDE (recessive: extended format)
	put(uint32(f.ID)&0x3ffff, 18) // ID-B: bits 17..0
	put(0, 1)                     // RTR (dominant: data frame)
	put(0, 2)                     // r1, r0
	put(uint32(len(f.Data)), 4)   // DLC
	for _, b := range f.Data {
		put(uint32(b), 8)
	}
	put(uint32(crc15(bits[base:])), 15) // CRC over the frame bits so far
	return bits
}

// refCountStuff returns the number of stuff bits the CAN bit-stuffing
// rule inserts into an unstuffed sequence: after five consecutive bits of
// equal value a complementary bit is inserted (and itself participates in
// subsequent runs).
func refCountStuff(bits []byte) int {
	stuffed := 0
	run := 1
	prev := bits[0]
	for i := 1; i < len(bits); i++ {
		b := bits[i]
		if b == prev {
			run++
			if run == 5 {
				stuffed++
				// The inserted complement bit restarts the run.
				prev = 1 - b
				run = 1
			}
		} else {
			prev = b
			run = 1
		}
	}
	return stuffed
}

// refEncodeBits returns the frame's stuffed wire bits, SOF through the
// CRC sequence.
func refEncodeBits(f Frame) []byte {
	return appendStuffed(nil, appendUnstuffedBits(nil, f))
}

// appendStuffed applies the CAN bit-stuffing rule to raw, appending the
// stuffed stream to dst.
func appendStuffed(dst, raw []byte) []byte {
	run := 0
	var prev byte = 2
	for _, b := range raw {
		if b == prev {
			run++
		} else {
			prev, run = b, 1
		}
		dst = append(dst, b)
		if run == 5 {
			dst = append(dst, 1-b)
			prev, run = 1-b, 1
		}
	}
	return dst
}

// destuff removes stuff bits, failing on a six-bit run (which on a real
// bus signals an error frame, not data).
func destuff(bits []byte) ([]byte, error) {
	out := make([]byte, 0, len(bits))
	run := 0
	var prev byte = 2
	skip := false
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("%w: non-binary symbol at %d", ErrWire, i)
		}
		if skip {
			// This bit is a stuff bit: it must complement the previous run.
			if b == prev {
				return nil, fmt.Errorf("%w: stuff violation at bit %d", ErrWire, i)
			}
			prev, run = b, 1
			skip = false
			continue
		}
		if b == prev {
			run++
		} else {
			prev, run = b, 1
		}
		out = append(out, b)
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// refDecodeBits parses a stuffed wire stream back into a frame,
// validating the fixed-form fields and the CRC. Unlike Codec.Decode it
// accepts a stream cut off just before a final stuff bit.
func refDecodeBits(bits []byte) (Frame, error) {
	raw, err := destuff(bits)
	if err != nil {
		return Frame{}, err
	}
	// Minimum frame: SOF..DLC (39 bits) + CRC (15).
	if len(raw) < extStuffedOverheadBits {
		return Frame{}, fmt.Errorf("%w: truncated frame (%d bits)", ErrWire, len(raw))
	}
	pos := 0
	take := func(n int) uint32 {
		var v uint32
		for i := 0; i < n; i++ {
			v = v<<1 | uint32(raw[pos])
			pos++
		}
		return v
	}
	if take(1) != 0 {
		return Frame{}, fmt.Errorf("%w: SOF not dominant", ErrWire)
	}
	idA := take(11)
	if take(1) != 1 {
		return Frame{}, fmt.Errorf("%w: SRR not recessive", ErrWire)
	}
	if take(1) != 1 {
		return Frame{}, fmt.Errorf("%w: IDE not recessive (standard frames unsupported)", ErrWire)
	}
	idB := take(18)
	if take(1) != 0 {
		return Frame{}, fmt.Errorf("%w: RTR set (remote frames unsupported)", ErrWire)
	}
	take(2) // r1, r0
	dlc := int(take(4))
	if dlc > MaxPayload {
		return Frame{}, fmt.Errorf("%w: DLC %d", ErrWire, dlc)
	}
	if len(raw) != extStuffedOverheadBits+8*dlc {
		return Frame{}, fmt.Errorf("%w: length %d bits does not match DLC %d",
			ErrWire, len(raw), dlc)
	}
	data := make([]byte, 0, dlc)
	for i := 0; i < dlc; i++ {
		data = append(data, byte(take(8)))
	}
	gotCRC := uint16(take(15))
	if wantCRC := crc15(raw[:len(raw)-15]); gotCRC != wantCRC {
		return Frame{}, fmt.Errorf("%w: CRC mismatch %#x != %#x", ErrWire, gotCRC, wantCRC)
	}
	return Frame{ID: ID(idA<<18 | idB), Data: data}, nil
}
