package binding

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// FuzzAgentHandleFrame feeds arbitrary configuration-channel payloads into
// the agent's wire parser. The agent must never panic and must never hand
// out a node number from the temporary range, no matter how mangled the
// request is.
func FuzzAgentHandleFrame(f *testing.F) {
	f.Add([]byte{opBindReq<<4 | 3, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{opJoinReq << 4, 0xEE, 0xFF, 0xC0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Add([]byte{opBindAck << 4}) // reply op sent at the agent: ignored
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > can.MaxPayload {
			data = data[:can.MaxPayload]
		}
		k := sim.NewKernel(1)
		bus := can.NewBus(k, can.DefaultBitRate)
		agent := NewAgent(k, bus.Attach(agentTxNode))
		agent.HandleFrame(can.Frame{
			ID:   can.MakeID(defaultPrio, tempNodeLo, ConfigEtag),
			Data: data,
		}, 0)
		k.Run(10 * sim.Millisecond) // drain any reply the parser queued
		for _, n := range agent.nodesByUID {
			if n >= tempNodeLo {
				t.Fatalf("agent assigned temporary node %d", n)
			}
		}
	})
}

// FuzzClientHandleFrame feeds arbitrary payloads into the client's parser
// while a bind and a join call are in flight: no input may panic it or
// complete a call with an answer for a different subject or uid.
func FuzzClientHandleFrame(f *testing.F) {
	f.Add([]byte{opBindAck << 4, 0x34, 0x12, 100, 0, 0, 0, 0})
	f.Add([]byte{opJoinAck << 4, 5, 0xEE, 0xFF, 0xC0, 0, 0, 0})
	f.Add([]byte{opBindErr << 4, 100, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > can.MaxPayload {
			data = data[:can.MaxPayload]
		}
		k := sim.NewKernel(1)
		bus := can.NewBus(k, can.DefaultBitRate)
		cl := NewClient(k, bus.Attach(tempNodeLo))
		cl.Bind(100, func(can.Etag, error) {})
		cl.Join(0xC0FFEE, func(node can.TxNode, err error) {
			if err == nil && node >= tempNodeLo {
				t.Fatalf("join completed with temporary node %d", node)
			}
		})
		cl.HandleFrame(can.Frame{
			ID:   can.MakeID(defaultPrio, agentTxNode, ConfigEtag),
			Data: data,
		}, 0)
	})
}

// FuzzPut56RoundTrip pins the 56-bit wire encoding helpers.
func FuzzPut56RoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0xC0FFEE00))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		var buf [7]byte
		Put56(buf[:], v)
		if got, want := get56(buf[:]), v&((1<<56)-1); got != want {
			t.Fatalf("get56(Put56(%#x)) = %#x, want %#x", v, got, want)
		}
	})
}
