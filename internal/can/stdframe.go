package can

// Standard-format (CAN 2.0A, 11-bit identifier) wire arithmetic. The
// event channel model requires 29-bit identifiers (§3.5) and the bus
// model carries extended frames exclusively; these helpers exist for
// analysis tooling — comparing against legacy 2.0A systems (CANopen, SDS,
// DeviceNet are standard-frame protocols, §4) and computing their frame
// timings in the same WCRT machinery.

// Standard-frame constants: the stuffed region is SOF(1) + ID(11) +
// RTR(1) + IDE(1) + r0(1) + DLC(4) + data + CRC(15) = 34 + 8s bits; the
// unstuffed tail is identical to the extended format (13 bits).
const stdStuffedOverheadBits = 34

// MaxStdID is the largest standard identifier.
const MaxStdID = 1<<11 - 1

// StdWorstCaseBits returns the classical worst-case standard-frame length
// for a payload of s bytes: g + 8s + 13 + ⌊(g + 8s − 1)/4⌋ with g = 34.
// For s = 8 this is 135 bit times (135 µs at 1 Mbit/s).
func StdWorstCaseBits(s int) int {
	g := stdStuffedOverheadBits
	return g + 8*s + frameTailBits + (g+8*s-1)/4
}

// StdMinFrameBits returns the minimum standard-frame length (no stuffing).
func StdMinFrameBits(s int) int {
	return stdStuffedOverheadBits + 8*s + frameTailBits
}

// StdWireBits returns the exact stuffed wire length of a standard data
// frame with the given 11-bit identifier and payload. It shares the
// extended codec's raw form (wire.go): five pad bits byte-align the 19
// header bits.
func StdWireBits(id uint16, data []byte) int {
	// pad(5) SOF | ID(11) | RTR IDE r0 (dominant) | DLC(4)
	h := uint64(id&MaxStdID)<<7 | uint64(len(data))
	var buf rawBuf
	raw := packRaw(&buf, h, stdHeaderBytes, data)
	return stdStuffedOverheadBits + 8*len(data) + countStuff(stuffStartStd, raw) + frameTailBits
}
