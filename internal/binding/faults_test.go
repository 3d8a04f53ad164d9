package binding

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// faultyRig wires an agent plus n clients on a bus with the given
// consistent-error rate.
func faultyRig(n int, seed uint64, errRate float64) (*sim.Kernel, *can.Bus, *Agent, []*Client) {
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Injector = can.RandomErrors{Rate: errRate}
	actrl := bus.Attach(agentTxNode)
	agent := NewAgent(k, actrl)
	actrl.OnReceive = func(f can.Frame, at sim.Time) {
		if f.ID.Etag() == ConfigEtag {
			agent.HandleFrame(f, at)
		}
	}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		ctrl := bus.Attach(tempNodeLo + can.TxNode(i))
		cl := NewClient(k, ctrl)
		ctrl.OnReceive = func(f can.Frame, at sim.Time) {
			if f.ID.Etag() == ConfigEtag {
				cl.HandleFrame(f, at)
			}
		}
		clients[i] = cl
	}
	return k, bus, agent, clients
}

// TestBindConvergesUnderErrors: consistent errors are masked by CAN's
// automatic retransmission, so binding must succeed without even needing
// the application-level retry.
func TestBindConvergesUnderErrors(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3} {
		k, _, _, clients := faultyRig(3, 11, rate)
		okCount := 0
		for i, cl := range clients {
			cl.Bind(Subject(0x900+i), func(e can.Etag, err error) {
				if err == nil && e != 0 {
					okCount++
				}
			})
		}
		k.Run(5 * sim.Second)
		if okCount != 3 {
			t.Fatalf("rate %v: %d/3 binds succeeded", rate, okCount)
		}
	}
}

// TestJoinConvergesUnderErrors: joins are single-shot, so every corrupted
// attempt surfaces as a failure and triggers the randomized retry; with
// enough attempts the protocol still converges.
func TestJoinConvergesUnderErrors(t *testing.T) {
	k, _, agent, clients := faultyRig(4, 13, 0.2)
	for _, cl := range clients {
		cl.Retry.Attempts = 50
	}
	joined := 0
	for i, cl := range clients {
		cl.Join(uint64(0x7000+i), func(n can.TxNode, err error) {
			if err == nil && n != 0 {
				joined++
			}
		})
	}
	k.Run(20 * sim.Second)
	if joined != 4 {
		t.Fatalf("%d/4 joins converged under 20%% error rate", joined)
	}
	if len(agent.nodesByUID) != 4 {
		t.Fatalf("agent assigned %d nodes", len(agent.nodesByUID))
	}
}

// TestBindSurvivesLossyAcks: inconsistent omissions can eat ACKs; the
// client's timeout retry must recover (the agent's Bind is idempotent, so
// the retry returns the same etag).
func TestBindSurvivesLossyAcks(t *testing.T) {
	k, bus, _, clients := faultyRig(1, 17, 0)
	drop := 3
	bus.Injector = can.FuncInjector(func(f can.Frame, sender, _ int, _ sim.Time, _ *sim.RNG) can.Fault {
		// Drop the first ACKs (from the agent, node index 0) silently at
		// the client (controller index 1).
		if sender == 0 && drop > 0 {
			drop--
			return can.Fault{Kind: can.FaultOmission, Victims: map[int]bool{1: true}}
		}
		return can.Fault{}
	})
	cl := clients[0]
	cl.Retry.Base = 20 * sim.Millisecond
	cl.Retry.Attempts = 10
	var got can.Etag
	cl.Bind(0x42, func(e can.Etag, err error) {
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		got = e
	})
	k.Run(5 * sim.Second)
	if got == 0 {
		t.Fatal("bind never recovered from lost ACKs")
	}
}
