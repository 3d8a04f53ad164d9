// Package relay federates canec bus segments over real TCP links. Each
// daemon (cmd/canecd) runs one simulated segment paced against the wall
// clock (sim.Paced) and exchanges events with its peers through a small
// versioned binary protocol. The relay is deliberately dumb transport:
// all federation semantics — origin preservation, loop guards, per-hop
// deadline budgets, trace adoption — live in gateway.RemoteBridge; the
// relay contributes framing, per-peer subject subscriptions with origin
// filters, heartbeats and class-aware egress backpressure (NRT dropped
// first, expired SRT copies shed, HRT never silently dropped).
package relay

import (
	"encoding/binary"
	"fmt"
	"io"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/sim"
)

// protoVersion is the relay wire protocol version carried in Hello.
const protoVersion = 1

// maxMsgLen bounds a single length-prefixed message; longer prefixes are
// treated as stream corruption and close the link.
const maxMsgLen = 1 << 20

// Message types. Every message on the wire is a 4-byte big-endian length
// prefix followed by one type byte and the type-specific body.
const (
	msgHello     byte = 1 // version u8, segment string
	msgSub       byte = 2 // subject u64, include TxNodes, exclude TxNodes
	msgUnsub     byte = 3 // subject u64
	msgFrame     byte = 4 // federation metadata + CAN-encoded payload chunks
	msgHeartbeat byte = 5 // empty body
)

// MsgFrame is the wire type byte of data-plane frame messages, exported
// so fault-injection tooling (internal/chaos) can tell data from control
// traffic without decoding message bodies.
const MsgFrame = msgFrame

// chunk priorities map the channel class onto the synthetic CAN IDs the
// payload chunks travel under. They are transport framing only — the
// receiving segment re-publishes through its own middleware, which
// assigns real per-segment priorities — but keeping the paper's
// P_HRT < P_SRT < P_NRT ordering makes captures self-describing.
func chunkPrio(class core.Class) can.Prio {
	switch class {
	case core.HRT:
		return 0
	case core.SRT:
		return 64
	default:
		return 192
	}
}

// appendString appends a u8-length-prefixed string (relay strings are
// short segment names; longer ones fail encode).
func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("relay: string %q exceeds 255 bytes", s[:32])
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

func readU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

func appendU16(dst []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(dst, v)
}

func readU16(b []byte) (uint16, []byte, error) {
	if len(b) < 2 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return binary.BigEndian.Uint16(b), b[2:], nil
}

// encodeHello builds a Hello body.
func encodeHello(segment string) ([]byte, error) {
	b := []byte{msgHello, protoVersion}
	return appendString(b, segment)
}

// decodeHello parses a Hello body (after the type byte).
func decodeHello(b []byte) (version byte, segment string, err error) {
	if len(b) < 1 {
		return 0, "", io.ErrUnexpectedEOF
	}
	version = b[0]
	segment, _, err = readString(b[1:])
	return version, segment, err
}

// subscription is a peer's interest in one subject, with optional origin
// filtering evaluated against RemoteEvent.Origin at the sending relay —
// this is how the paper's origin-TxNode filtering (§2.2.1) is honored
// remotely, before the event ever crosses the wire.
type subscription struct {
	Subject binding.Subject
	Include []can.TxNode // empty = all origins
	Exclude []can.TxNode
}

// accepts reports whether an event origin passes the filter.
func (s subscription) accepts(origin can.TxNode) bool {
	for _, x := range s.Exclude {
		if x == origin {
			return false
		}
	}
	if len(s.Include) == 0 {
		return true
	}
	for _, i := range s.Include {
		if i == origin {
			return true
		}
	}
	return false
}

func encodeSub(s subscription) ([]byte, error) {
	if len(s.Include) > 255 || len(s.Exclude) > 255 {
		return nil, fmt.Errorf("relay: origin filter list exceeds 255 nodes")
	}
	b := []byte{msgSub}
	b = appendU64(b, uint64(s.Subject))
	b = append(b, byte(len(s.Include)))
	for _, n := range s.Include {
		b = append(b, byte(n))
	}
	b = append(b, byte(len(s.Exclude)))
	for _, n := range s.Exclude {
		b = append(b, byte(n))
	}
	return b, nil
}

func decodeSub(b []byte) (subscription, error) {
	var s subscription
	subj, b, err := readU64(b)
	if err != nil {
		return s, err
	}
	s.Subject = binding.Subject(subj)
	readNodes := func(b []byte) ([]can.TxNode, []byte, error) {
		if len(b) < 1 {
			return nil, nil, io.ErrUnexpectedEOF
		}
		n := int(b[0])
		if len(b) < 1+n {
			return nil, nil, io.ErrUnexpectedEOF
		}
		var nodes []can.TxNode
		for i := 0; i < n; i++ {
			nodes = append(nodes, can.TxNode(b[1+i]))
		}
		return nodes, b[1+n:], nil
	}
	if s.Include, b, err = readNodes(b); err != nil {
		return s, err
	}
	if s.Exclude, _, err = readNodes(b); err != nil {
		return s, err
	}
	return s, nil
}

func encodeUnsub(subject binding.Subject) []byte {
	return appendU64([]byte{msgUnsub}, uint64(subject))
}

func decodeUnsub(b []byte) (binding.Subject, error) {
	subj, _, err := readU64(b)
	return binding.Subject(subj), err
}

// maxPackedChunk bounds the packed byte form of one stuffed chunk.
const maxPackedChunk = can.MaxStuffedBytes

// encodeFrame serialises a RemoteEvent. The payload crosses the wire as
// stuffed CAN 2.0B bit streams — one extended data frame per 8-byte
// chunk, produced by the repository's wire codec, eight bits per byte —
// so every relay hop carries (and CRC-checks) genuine CAN frames rather
// than an ad-hoc byte blob.
//
// Body layout after the type byte:
//
//	class u8 | origin u8 | hops u8 | originSeg str |
//	subject u64 | budget i64 | traceID u64 |
//	nchunks u16 | { bitCount u16, packed ⌈bitCount/8⌉ bytes }*
func encodeFrame(codec *can.Codec, re gateway.RemoteEvent) ([]byte, error) {
	nchunks := (len(re.Payload) + can.MaxPayload - 1) / can.MaxPayload
	if nchunks > 0xffff {
		return nil, fmt.Errorf("relay: payload %d bytes exceeds chunk limit", len(re.Payload))
	}
	// Fixed fields, the origin segment and every chunk at its worst-case
	// stuffed length: the message is built in one allocation.
	b := make([]byte, 0, 4+1+len(re.OriginSeg)+3*8+2+nchunks*(2+maxPackedChunk))
	b = append(b, msgFrame, byte(re.Class), byte(re.Origin), byte(re.Hops))
	b, err := appendString(b, re.OriginSeg)
	if err != nil {
		return nil, err
	}
	b = appendU64(b, uint64(re.Subject))
	b = appendU64(b, uint64(re.Budget))
	b = appendU64(b, re.TraceID)
	b = appendU16(b, uint16(nchunks))
	prio := chunkPrio(re.Class)
	etag := can.Etag(uint64(re.Subject) & uint64(can.MaxEtag))
	for i := 0; i < nchunks; i++ {
		lo := i * can.MaxPayload
		hi := lo + can.MaxPayload
		if hi > len(re.Payload) {
			hi = len(re.Payload)
		}
		f := can.Frame{
			ID:   can.MakeID(prio, re.Origin, etag),
			Data: re.Payload[lo:hi],
			Tag:  re.TraceID,
		}
		at := len(b)
		b = appendU16(b, 0) // bit count, known once the chunk is encoded
		var bitCount int
		b, bitCount = codec.Encode(b, f)
		binary.BigEndian.PutUint16(b[at:], uint16(bitCount))
	}
	return b, nil
}

// decodeFrame parses a Frame body (after the type byte), verifying each
// chunk's CAN encoding (stuffing discipline and CRC-15).
func decodeFrame(codec *can.Codec, b []byte) (gateway.RemoteEvent, error) {
	var re gateway.RemoteEvent
	if len(b) < 3 {
		return re, io.ErrUnexpectedEOF
	}
	re.Class = core.Class(b[0])
	if re.Class != core.HRT && re.Class != core.SRT && re.Class != core.NRT {
		return re, fmt.Errorf("relay: unknown class %d", b[0])
	}
	re.Origin = can.TxNode(b[1])
	re.Hops = int(b[2])
	var err error
	re.OriginSeg, b, err = readString(b[3:])
	if err != nil {
		return re, err
	}
	var subj, budget uint64
	if subj, b, err = readU64(b); err != nil {
		return re, err
	}
	re.Subject = binding.Subject(subj)
	if budget, b, err = readU64(b); err != nil {
		return re, err
	}
	re.Budget = sim.Duration(int64(budget))
	if re.TraceID, b, err = readU64(b); err != nil {
		return re, err
	}
	nchunks, b, err := readU16(b)
	if err != nil {
		return re, err
	}
	for i := 0; i < int(nchunks); i++ {
		var bitCount uint16
		if bitCount, b, err = readU16(b); err != nil {
			return re, err
		}
		if int(bitCount) > can.MaxStuffedBits {
			return re, fmt.Errorf("relay: chunk %d claims %d bits", i, bitCount)
		}
		packedLen := (int(bitCount) + 7) / 8
		if len(b) < packedLen {
			return re, io.ErrUnexpectedEOF
		}
		f, err := codec.Decode(b[:packedLen], int(bitCount))
		if err != nil {
			return re, fmt.Errorf("relay: chunk %d: %w", i, err)
		}
		b = b[packedLen:]
		re.Payload = append(re.Payload, f.Data...)
	}
	return re, nil
}

// writeMsg frames and writes one message (type byte + body in b).
func writeMsg(w io.Writer, b []byte) (int, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return 4 + n, err
}

// readMsg reads one length-prefixed message into a fresh buffer.
func readMsg(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxMsgLen {
		return nil, fmt.Errorf("relay: message length %d out of range", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Default retry policy for uplink re-dialing when the config leaves it
// zero: the binding protocol's capped exponential schedule.
func retryOrDefault(p binding.RetryPolicy) binding.RetryPolicy {
	if p.Base <= 0 {
		return binding.DefaultRetryPolicy()
	}
	return p
}
