// Package can models a CAN 2.0B bus at frame granularity with exact
// bit-level timing. It provides the identifier layout used by the event
// channel middleware (priority | TxNode | etag), exact wire lengths
// including CRC-15 and bit stuffing, the priority-based non-preemptive
// arbitration of CAN, its acknowledgement and error-frame semantics with
// automatic retransmission, and pluggable fault injection.
//
// The model resolves arbitration at bus-idle instants by choosing the
// pending frame with the numerically smallest 29-bit identifier — which is
// exactly the outcome of CAN's dominant/recessive bitwise arbitration —
// while occupying the bus for the frame's exact stuffed bit count. This
// "frame-granular arbitration, bit-accurate timing" compromise keeps the
// simulation fast without changing any temporal property the paper's
// protocol depends on.
//
// Frame ownership: Controller.Submit copies the payload into a request
// record from the bus's free list, so the submitter may reuse its buffer
// at once. One transmission then yields one frame, shared by every
// receiver's Controller.OnReceive and by Bus.Trace, as every node on a
// real bus observes the same transmitted bits. Its Data is read-only and
// valid for the callback only: once the request has left its controller
// and its Done has returned, the record goes back to the free list and
// carries a later frame. A receiver or trace hook that keeps the bytes
// copies them, and a TxHandle kept past that point no longer names the
// request (Update and Abort on it return false).
package can

import "fmt"

// Identifier field widths for the event-channel ID layout of the paper
// (§3.5): an 8-bit explicit priority, a 7-bit transmitting-node field that
// makes identifiers system-wide unique (a CAN requirement), and a 14-bit
// etag naming the event channel.
const (
	prioBits   = 8
	txNodeBits = 7
	etagBits   = 14
	idBits     = prioBits + txNodeBits + etagBits // 29, CAN 2.0B extended

	MaxPrio   = 1<<prioBits - 1   // 255; numerically higher = lower priority
	MaxTxNode = 1<<txNodeBits - 1 // 127
	MaxEtag   = 1<<etagBits - 1   // 16383
)

// ID is a 29-bit CAN 2.0B extended identifier. Lower numeric value wins
// arbitration (higher priority).
type ID uint32

// Prio is the 8-bit explicit priority field (0 = highest).
type Prio uint8

// TxNode is the 7-bit transmitting node number assigned by the
// configuration protocol.
type TxNode uint8

// Etag is the 14-bit event tag bound to a subject by the binding protocol.
type Etag uint16

// MakeID packs the three fields into an identifier. The priority occupies
// the most significant bits so that it dominates arbitration; TxNode comes
// next so that ties between equal priorities resolve deterministically by
// node; the etag occupies the low bits.
func MakeID(p Prio, n TxNode, e Etag) ID {
	return ID(uint32(p)<<(txNodeBits+etagBits) |
		uint32(n&MaxTxNode)<<etagBits |
		uint32(e&MaxEtag))
}

// Prio extracts the priority field.
func (id ID) Prio() Prio { return Prio(id >> (txNodeBits + etagBits)) }

// TxNode extracts the transmitting node field.
func (id ID) TxNode() TxNode { return TxNode((id >> etagBits) & MaxTxNode) }

// Etag extracts the event tag field.
func (id ID) Etag() Etag { return Etag(id & MaxEtag) }

// Valid reports whether id fits in 29 bits.
func (id ID) Valid() bool { return id < 1<<idBits }

// String renders the identifier as its three fields.
func (id ID) String() string {
	return fmt.Sprintf("id{p=%d n=%d e=%d}", id.Prio(), id.TxNode(), id.Etag())
}
