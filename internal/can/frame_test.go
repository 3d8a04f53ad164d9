package can

import (
	"testing"
	"testing/quick"

	"canec/internal/sim"
)

func TestIDPackUnpack(t *testing.T) {
	id := MakeID(5, 33, 1234)
	if id.Prio() != 5 || id.TxNode() != 33 || id.Etag() != 1234 {
		t.Fatalf("roundtrip failed: %v", id)
	}
	if !id.Valid() {
		t.Fatal("packed ID invalid")
	}
}

func TestIDPackUnpackProperty(t *testing.T) {
	f := func(p uint8, n uint8, e uint16) bool {
		id := MakeID(Prio(p), TxNode(n&MaxTxNode), Etag(e&MaxEtag))
		return id.Valid() &&
			id.Prio() == Prio(p) &&
			id.TxNode() == TxNode(n&MaxTxNode) &&
			id.Etag() == Etag(e&MaxEtag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIDPriorityDominatesArbitration(t *testing.T) {
	// Any frame with a numerically lower priority field must have a lower
	// (i.e. winning) 29-bit identifier regardless of the other fields.
	f := func(pa, pb uint8, na, nb uint8, ea, eb uint16) bool {
		a := MakeID(Prio(pa), TxNode(na&MaxTxNode), Etag(ea&MaxEtag))
		b := MakeID(Prio(pb), TxNode(nb&MaxTxNode), Etag(eb&MaxEtag))
		if pa < pb {
			return a < b
		}
		if pa > pb {
			return a > b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC15KnownVector(t *testing.T) {
	// CRC of the empty sequence is 0; a single dominant bit yields the
	// polynomial's low bits shifted through once.
	if got := crc15(nil); got != 0 {
		t.Fatalf("crc15(nil) = %#x", got)
	}
	// CRC must differ when any bit differs (weak but real sanity check).
	a := crc15([]byte{0, 1, 0, 1, 1, 0, 0, 1})
	b := crc15([]byte{0, 1, 0, 1, 1, 0, 0, 0})
	if a == b {
		t.Fatal("crc15 collision on 1-bit difference")
	}
}

func TestWireBitsWithinBounds(t *testing.T) {
	f := func(idRaw uint32, data []byte) bool {
		id := ID(idRaw % (1 << idBits))
		if len(data) > MaxPayload {
			data = data[:MaxPayload]
		}
		fr := Frame{ID: id, Data: data}
		w := WireBits(fr)
		return w >= MinFrameBits(len(data)) && w <= WorstCaseBits(len(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstCaseBitsValues(t *testing.T) {
	// Tindell's bound for extended frames: g=54, 13 tail bits.
	cases := map[int]int{
		0: 54 + 0 + 13 + 53/4,   // 80
		8: 54 + 64 + 13 + 117/4, // 160
	}
	for s, want := range cases {
		if got := WorstCaseBits(s); got != want {
			t.Errorf("WorstCaseBits(%d) = %d, want %d", s, got, want)
		}
	}
	// The paper quotes 154 µs for the longest message at 1 Mbit/s; our safe
	// bound is 160. Assert the relationship stays documented-true.
	if WorstCaseBits(8) < 154 {
		t.Fatal("worst case bound fell below the paper's 154-bit figure")
	}
}

func TestStuffBitsExtremes(t *testing.T) {
	// All-zero payload and a zero ID maximises runs of identical bits, so
	// stuffing must be substantial; alternating payload bits minimise it.
	heavy := Frame{ID: 0, Data: []byte{0, 0, 0, 0, 0, 0, 0, 0}}
	light := Frame{ID: MakeID(0xAA>>0, 0x2A, 0x1555), Data: []byte{0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA}}
	if stuffBits(heavy) <= stuffBits(light) {
		t.Fatalf("stuffing not monotone with run content: heavy=%d light=%d",
			stuffBits(heavy), stuffBits(light))
	}
	if stuffBits(heavy) > WorstCaseBits(8)-MinFrameBits(8) {
		t.Fatalf("stuff bits %d exceed worst-case budget %d",
			stuffBits(heavy), WorstCaseBits(8)-MinFrameBits(8))
	}
}

func TestStuffedStreamHasNoLongRuns(t *testing.T) {
	// Property: applying the stuffing rule to the unstuffed bit stream
	// never leaves six identical bits in a row.
	f := func(idRaw uint32, data []byte) bool {
		id := ID(idRaw % (1 << idBits))
		if len(data) > MaxPayload {
			data = data[:MaxPayload]
		}
		bits := appendUnstuffedBits(nil, Frame{ID: id, Data: data})
		// Re-apply stuffing, building the stuffed stream.
		var out []byte
		run := 0
		var prev byte = 2
		for _, b := range bits {
			if b == prev {
				run++
			} else {
				prev, run = b, 1
			}
			out = append(out, b)
			if run == 5 {
				out = append(out, 1-b)
				prev, run = 1-b, 1
			}
		}
		// Verify no run of 6 in the stuffed stream.
		run = 0
		prev = 2
		for _, b := range out {
			if b == prev {
				run++
				if run >= 6 {
					return false
				}
			} else {
				prev, run = b, 1
			}
		}
		// And that the count matches stuffBits.
		return len(out)-len(bits) == stuffBits(Frame{ID: id, Data: data})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBitTime(t *testing.T) {
	if got := BitTime(160, DefaultBitRate); got != 160*sim.Microsecond {
		t.Fatalf("BitTime(160, 1M) = %v", got)
	}
	if got := BitTime(100, 500_000); got != 200*sim.Microsecond {
		t.Fatalf("BitTime(100, 500k) = %v", got)
	}
}

func TestFrameValidate(t *testing.T) {
	if err := (Frame{ID: 1 << idBits}).Validate(); err == nil {
		t.Fatal("oversized ID accepted")
	}
	if err := (Frame{ID: 1, Data: make([]byte, 9)}).Validate(); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := (Frame{ID: 1, Data: make([]byte, 8)}).Validate(); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
}

func TestFrameClone(t *testing.T) {
	f := Frame{ID: 7, Data: []byte{1, 2, 3}, Tag: 5, PublishedAt: 42,
		Origin: Origin{End: 99, Segment: 2, Node: 3, Hops: 1}}
	g := f.Clone()
	g.Data[0] = 99
	if f.Data[0] != 1 {
		t.Fatal("Clone shares payload storage")
	}
	if g.ID != f.ID || g.Tag != f.Tag || g.PublishedAt != f.PublishedAt || g.Origin != f.Origin {
		t.Fatalf("Clone = %+v, want the metadata of %+v", g, f)
	}
}
