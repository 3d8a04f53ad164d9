package can

import (
	"bytes"
	"fmt"
	"testing"

	"canec/internal/sim"
)

// EncodeBits returns the frame's stuffed wire bits one bit per byte
// (values 0/1) — Codec.Encode's stream unpacked, the form bit-level tests
// work with.
func EncodeBits(f Frame) []byte {
	var c Codec
	var buf [MaxStuffedBytes]byte
	packed, n := c.Encode(buf[:0], f)
	bits, _ := UnpackBits(make([]byte, 0, n), packed, n) // packed holds n bits
	return bits
}

// DecodeBits parses a bit-per-byte stuffed stream (see EncodeBits) with
// Codec.Decode. The returned frame owns its payload.
func DecodeBits(bits []byte) (Frame, error) {
	for i, b := range bits {
		if b > 1 {
			return Frame{}, fmt.Errorf("%w: non-binary symbol at %d", ErrWire, i)
		}
	}
	c := new(Codec)
	return c.Decode(PackBits(make([]byte, 0, MaxStuffedBytes), bits), len(bits))
}

// PackBits appends a bit-per-byte stream (EncodeBits output) to dst
// packed 8 bits per byte, MSB first.
func PackBits(dst, bits []byte) []byte {
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < len(bits); j++ {
			b |= (bits[i+j] & 1) << (7 - j)
		}
		dst = append(dst, b)
	}
	return dst
}

// UnpackBits appends n bits unpacked from the MSB-first packed stream to
// dst (one bit per byte). It fails when packed holds fewer than n bits.
func UnpackBits(dst, packed []byte, n int) ([]byte, error) {
	if n < 0 || len(packed)*8 < n {
		return nil, fmt.Errorf("%w: %d packed bytes hold fewer than %d bits", ErrWire, len(packed), n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, packed[i/8]>>(7-i%8)&1)
	}
	return dst, nil
}

// bitsOf returns the low n bits of v, MSB first, one bit per byte.
func bitsOf(v uint64, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(v >> (n - 1 - i) & 1)
	}
	return bits
}

// Every CRC-table entry is the bit-serial CRC of its byte.
func TestCRCTableMatchesReference(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := crcTab[b], crc15(bitsOf(uint64(b), 8)); got != want {
			t.Fatalf("crcTab[%#02x] = %#x, reference %#x", b, got, want)
		}
	}
}

// Every stuffing-table entry — output bits, stuff count and next state —
// is what the bit-serial stuffing rule produces for that byte when it
// follows the run the state stands for.
func TestStuffTableMatchesReference(t *testing.T) {
	for st := 0; st < stuffStates; st++ {
		// The bits that put the reference into this state, and how many
		// bits of the byte it then consumes.
		var prefix []byte
		width := 8
		switch st {
		case stuffStartExt:
			width = 7
		default:
			prefix = bytes.Repeat([]byte{byte(st >> 2)}, st&3+1)
		}
		for b := 0; b < 256; b++ {
			raw := append(append([]byte(nil), prefix...), bitsOf(uint64(b), width)...)
			stuffed := appendStuffed(nil, raw)
			wantCount := len(stuffed) - len(raw)
			var wantOut uint64
			for _, bit := range stuffed[len(prefix):] {
				wantOut = wantOut<<1 | uint64(bit)
			}
			// The state after the byte: the run the stuffed stream ends in.
			last := stuffed[len(stuffed)-1]
			run := 0
			for i := len(stuffed) - 1; i >= 0 && stuffed[i] == last; i-- {
				run++
			}
			wantNext := int(last)<<2 | (run - 1)

			e := stuffTab[st][b]
			if e.count() != wantCount || e.out() != wantOut || e.next() != wantNext {
				t.Fatalf("stuffTab[%d][%#02x] = (out %#b, count %d, next %d), reference (out %#b, count %d, next %d)",
					st, b, e.out(), e.count(), e.next(), wantOut, wantCount, wantNext)
			}
		}
	}
}

// codecCorpus calls fn for n frames: first every combination of an
// extreme or random identifier, every DLC and every adversarial payload
// pattern, then uniformly random frames. The frame is only valid during
// the call.
func codecCorpus(n int, fn func(Frame)) {
	rng := sim.NewRNG(15)
	ids := []func() ID{
		func() ID { return 0 },
		func() ID { return 1<<IDBits - 1 },
		func() ID { return ID(rng.Uint64()) & (1<<IDBits - 1) },
	}
	patterns := [][2]byte{{0x00, 0x00}, {0xff, 0xff}, {0x55, 0x55}, {0xaa, 0xaa},
		{0x55, 0xaa}, {0xaa, 0x55}, {0x0f, 0x0f}, {0xf0, 0xf0}, {0x0f, 0xf0}, {0xf0, 0x0f}}
	var data [MaxPayload]byte
	for _, id := range ids {
		for dlc := 0; dlc <= MaxPayload; dlc++ {
			for _, p := range patterns {
				for i := range data {
					data[i] = p[i&1]
				}
				fn(Frame{ID: id(), Data: data[:dlc]})
				n--
			}
		}
	}
	for ; n > 0; n-- {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		fn(Frame{ID: ids[n%len(ids)](), Data: data[:n%(MaxPayload+1)]})
	}
}

// The packed codec and the bit-serial reference agree on the stuff count,
// the wire length and every bit of the encoded stream, and the packed
// decoder returns the frame.
func TestCodecMatchesReference(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n /= 10
	}
	var c Codec
	var unstuffed, stuffed, want, got []byte
	codecCorpus(n, func(f Frame) {
		unstuffed = appendUnstuffedBits(unstuffed[:0], f)
		stuffed = appendStuffed(stuffed[:0], unstuffed)
		want = PackBits(want[:0], stuffed)
		if s, ref := StuffBits(f), refCountStuff(unstuffed); s != ref {
			t.Fatalf("%v % x: StuffBits = %d, reference %d", f, f.Data, s, ref)
		}
		if w, ref := WireBits(f), len(stuffed)+frameTailBits; w != ref {
			t.Fatalf("%v % x: WireBits = %d, reference %d", f, f.Data, w, ref)
		}
		var nbits int
		got, nbits = c.Encode(got[:0], f)
		if nbits != len(stuffed) || !bytes.Equal(got, want) {
			t.Fatalf("%v % x: Encode = %d bits % x, reference %d bits % x", f, f.Data, nbits, got, len(stuffed), want)
		}
		dec, err := c.Decode(got, nbits)
		if err != nil || dec.ID != f.ID || !bytes.Equal(dec.Data, f.Data) {
			t.Fatalf("%v % x: Decode = %v % x, %v", f, f.Data, dec, dec.Data, err)
		}
	})
}

// The packed decoder accepts no stream the reference rejects, and decodes
// an accepted stream to the same frame — over every single-bit flip of
// valid encodings, where the stuffing, structure and CRC checks all fire.
func TestDecodeMatchesReferenceUnderBitFlips(t *testing.T) {
	codecCorpus(1500, func(f Frame) {
		bits := EncodeBits(f)
		for i := range bits {
			bits[i] ^= 1
			checkDecodeAgainstReference(t, bits)
			bits[i] ^= 1
		}
	})
}

func checkDecodeAgainstReference(t *testing.T, bits []byte) {
	t.Helper()
	got, err := DecodeBits(bits)
	if err != nil {
		return
	}
	ref, refErr := refDecodeBits(bits)
	if refErr != nil {
		t.Fatalf("stream %v: decoded to %v, reference rejects it: %v", bits, got, refErr)
	}
	if got.ID != ref.ID || !bytes.Equal(got.Data, ref.Data) {
		t.Fatalf("stream %v: decoded to %v % x, reference %v % x", bits, got, got.Data, ref, ref.Data)
	}
}

// A stream whose last five bits before the end of the CRC sequence are
// equal ends in a stuff bit; cut off before it, the stream is not the
// encoding of any frame. (The reference decoder lets it pass.)
func TestDecodeRejectsMissingFinalStuffBit(t *testing.T) {
	for e := Etag(0); e <= MaxEtag; e++ {
		f := Frame{ID: MakeID(1, 1, e)}
		bits := EncodeBits(f)
		cut := bits[:len(bits)-1]
		if _, err := refDecodeBits(cut); err != nil {
			continue // the last bit is a CRC bit
		}
		if _, err := DecodeBits(cut); err == nil {
			t.Fatalf("%v: stream without its final stuff bit accepted", f)
		}
		return
	}
	t.Fatal("no frame whose stuffed stream ends in a stuff bit")
}

// Decode bounds-checks the bit count against the bytes it is handed.
func TestDecodeRejectsOverlongBitCount(t *testing.T) {
	var c Codec
	packed, n := c.Encode(nil, Frame{ID: 1, Data: []byte{1}})
	if _, err := c.Decode(packed, len(packed)*8+1); err == nil {
		t.Fatal("bit count beyond the packed bytes accepted")
	}
	if _, err := c.Decode(packed, -1); err == nil {
		t.Fatal("negative bit count accepted")
	}
	if _, err := c.Decode(packed, n); err != nil {
		t.Fatal(err)
	}
}
