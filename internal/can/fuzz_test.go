package can

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip asserts the codec's safety properties on arbitrary
// inputs: (1) every valid frame survives encode→decode bit-exactly, in
// the packed form and in its bit-per-byte view, and the packed stream and
// the wire length are the bit-serial reference's; (2) decoding an
// arbitrary bit stream never panics — it either returns a frame that
// re-encodes to the same stuffed stream, and that the reference decodes
// to the same frame, or a wrapped errWire.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(0), []byte{}, []byte{})
	f.Add(uint32(0x1FFFFFFF), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 1, 0, 1})
	f.Add(uint32(0x0AAAAAAA), []byte{0xFF, 0x00, 0xFF}, bytes.Repeat([]byte{1}, 64))
	f.Add(uint32(12345), []byte{0xDE, 0xAD}, bytes.Repeat([]byte{0}, 200))
	f.Fuzz(func(t *testing.T, id uint32, payload []byte, stream []byte) {
		// Property 1: encode→decode round-trips bit-exactly for any
		// valid frame.
		fr := Frame{ID: ID(id & (1<<idBits - 1)), Data: payload}
		if len(fr.Data) > MaxPayload {
			fr.Data = fr.Data[:MaxPayload]
		}
		ref := refEncodeBits(fr)
		if w := WireBits(fr); w != len(ref)+frameTailBits {
			t.Fatalf("WireBits(%v) = %d, reference stream has %d bits", fr, w, len(ref))
		}
		bits := EncodeBits(fr)
		if !bytes.Equal(bits, ref) {
			t.Fatalf("EncodeBits disagrees with the reference for %v", fr)
		}
		var c Codec
		packed, nbits := c.Encode(nil, fr)
		if nbits != len(ref) || !bytes.Equal(packed, PackBits(nil, ref)) {
			t.Fatalf("Codec.Encode disagrees with the reference for %v", fr)
		}
		got, err := DecodeBits(bits)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.ID != fr.ID || !bytes.Equal(got.Data, fr.Data) {
			t.Fatalf("round trip %v -> %v", fr, got)
		}
		cg, err := c.Decode(packed, nbits)
		if err != nil {
			t.Fatalf("Codec.Decode of own encoding failed: %v", err)
		}
		if cg.ID != fr.ID || !bytes.Equal(cg.Data, fr.Data) {
			t.Fatalf("Codec round trip %v -> %v", fr, cg)
		}
		// The bit-per-byte view must round-trip through the packed form.
		unpacked, err := UnpackBits(nil, packed, nbits)
		if err != nil || !bytes.Equal(unpacked, bits) {
			t.Fatalf("pack/unpack round trip failed: %v", err)
		}

		// Property 2: arbitrary streams never panic, and an accepted
		// stream must be exactly the encoding of the decoded frame
		// (otherwise the codec admits a second wire form for a frame).
		norm := make([]byte, len(stream))
		for i, b := range stream {
			norm[i] = b & 1
		}
		dec, err := DecodeBits(norm)
		if err == nil {
			if !bytes.Equal(EncodeBits(dec), norm) {
				t.Fatalf("accepted stream is not the canonical encoding of %v", dec)
			}
			checkDecodeAgainstReference(t, norm)
		}
		// The raw (unmasked) stream exercises the non-binary-symbol path.
		if _, err := DecodeBits(stream); err == nil && len(stream) > 0 {
			for _, b := range stream {
				if b > 1 {
					t.Fatalf("decoder accepted non-binary symbols")
				}
			}
		}
		// Unpacking with an arbitrary count must fail cleanly, not panic.
		if _, err := UnpackBits(nil, stream, len(stream)*8+1); err == nil {
			t.Fatalf("UnpackBits accepted an overlong bit count")
		}
	})
}
