package relay

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/sim"
)

func TestHelloRoundTrip(t *testing.T) {
	b, err := encodeHello("plant-floor")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != msgHello {
		t.Fatalf("type byte = %d", b[0])
	}
	ver, seg, err := decodeHello(b[1:])
	if err != nil || ver != protoVersion || seg != "plant-floor" {
		t.Fatalf("decode: ver=%d seg=%q err=%v", ver, seg, err)
	}
}

func TestSubRoundTrip(t *testing.T) {
	in := subscription{Subject: 0x1234, Include: []can.TxNode{3, 7}, Exclude: []can.TxNode{9}}
	b, err := encodeSub(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeSub(b[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if !out.accepts(3) || !out.accepts(7) {
		t.Fatal("included origin rejected")
	}
	if out.accepts(9) || out.accepts(5) {
		t.Fatal("excluded/unlisted origin accepted")
	}
	open := subscription{Subject: 1}
	if !open.accepts(42) {
		t.Fatal("open subscription rejected an origin")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var codec can.Codec
	for _, payloadLen := range []int{0, 1, 8, 9, 40} {
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		in := gateway.RemoteEvent{
			Class:     core.SRT,
			Subject:   0xBEEF,
			Payload:   payload,
			Origin:    5,
			OriginSeg: "segA",
			Hops:      2,
			Budget:    30 * sim.Millisecond,
			TraceID:   1_000_042,
		}
		b, err := encodeFrame(&codec, in)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != msgFrame {
			t.Fatalf("type byte = %d", b[0])
		}
		out, err := decodeFrame(&codec, b[1:])
		if err != nil {
			t.Fatalf("payload %d: %v", payloadLen, err)
		}
		if !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("payload %d: %v != %v", payloadLen, out.Payload, in.Payload)
		}
		out.Payload, in.Payload = nil, nil
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("metadata: %+v != %+v", out, in)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var codec can.Codec
	in := gateway.RemoteEvent{
		Class: core.HRT, Subject: 7, Payload: []byte{1, 2, 3, 4},
		OriginSeg: "x", TraceID: 9,
	}
	b, err := encodeFrame(&codec, in)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the packed CAN chunk: the CRC-15 check must
	// refuse the frame.
	b[len(b)-3] ^= 0x10
	if _, err := decodeFrame(&codec, b[1:]); err == nil {
		t.Fatal("corrupted chunk accepted")
	}
	// Truncations at every prefix must error, never panic.
	good, _ := encodeFrame(&codec, in)
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeFrame(&codec, good[1:cut]); err == nil && cut < len(good)-1 {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Unknown class byte.
	bad := append([]byte(nil), good[1:]...)
	bad[0] = 99
	if _, err := decodeFrame(&codec, bad); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestReadWriteMsgFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{{msgHeartbeat}, {msgUnsub, 0, 0, 0, 0, 0, 0, 0, 9}}
	for _, m := range msgs {
		if _, err := writeMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := readMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("framing: %v != %v", got, want)
		}
	}
	// Oversized length prefix is stream corruption.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readMsg(&buf); err == nil {
		t.Fatal("oversized message accepted")
	}
}

// The bytes on the TCP wire are pinned: testdata/encodeframe.golden was
// written by the bit-per-byte codec (EncodeBits → PackBits) that preceded
// the packed one, one hex line per goldenEvents entry. A change to it is
// a protocol change and needs a new protoVersion.
func TestEncodeFrameGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/encodeframe.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(golden))
	events := goldenEvents()
	if len(lines) != len(events) {
		t.Fatalf("golden has %d lines, want %d", len(lines), len(events))
	}
	var codec can.Codec
	for i, in := range events {
		b, err := encodeFrame(&codec, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != lines[i] {
			t.Fatalf("event %d:\n got %s\nwant %s", i, got, lines[i])
		}
		out, err := decodeFrame(&codec, b[1:])
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("event %d: payload % x != % x", i, out.Payload, in.Payload)
		}
	}
}

// goldenEvents is the fixed RemoteEvent set behind
// testdata/encodeframe.golden: every class, payloads from empty to
// several chunks, and the stuffing-heavy all-zero and all-one patterns.
func goldenEvents() []gateway.RemoteEvent {
	fill := func(n int, f func(i int) byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = f(i)
		}
		return p
	}
	zero := func(int) byte { return 0x00 }
	ones := func(int) byte { return 0xff }
	ramp := func(i int) byte { return byte(i*7 + 1) }
	alt := func(i int) byte { return 0x55 << uint(i&1) }
	return []gateway.RemoteEvent{
		{Class: core.HRT, Subject: 1, Origin: 0, OriginSeg: "a", TraceID: 1},
		{Class: core.HRT, Subject: 0x3fff, Payload: fill(8, zero), Origin: 127, OriginSeg: "plant-floor", Hops: 1, Budget: 5 * sim.Millisecond, TraceID: 2},
		{Class: core.SRT, Subject: 0xBEEF, Payload: fill(1, ones), Origin: 5, OriginSeg: "segA", Hops: 2, Budget: 30 * sim.Millisecond, TraceID: 1_000_042},
		{Class: core.SRT, Subject: 0xFFFFFFFFFFFFFFFF, Payload: fill(8, ones), Origin: 64, OriginSeg: "", Hops: 255, Budget: -1, TraceID: 0},
		{Class: core.SRT, Subject: 0, Payload: fill(7, alt), Origin: 1, OriginSeg: "b", Hops: 0, Budget: 0, TraceID: 0xFFFFFFFFFFFFFFFF},
		{Class: core.NRT, Subject: 77, Payload: fill(9, ramp), Origin: 9, OriginSeg: "segB", Hops: 3, Budget: sim.Second, TraceID: 3},
		{Class: core.NRT, Subject: 0x1234, Payload: fill(40, ramp), Origin: 33, OriginSeg: "cell-7", Hops: 1, Budget: 250 * sim.Microsecond, TraceID: 4},
		{Class: core.NRT, Subject: 0x2AAA, Payload: fill(64, zero), Origin: 2, OriginSeg: "z", Hops: 1, Budget: 1, TraceID: 5},
		{Class: core.NRT, Subject: 0x1555, Payload: fill(61, ones), Origin: 3, OriginSeg: "z", Hops: 1, Budget: 1, TraceID: 6},
	}
}
