package binding

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// standbyRig wires an agent (heartbeating), a passive standby on its own
// controller, and n clients onto one bus.
type standbyRig struct {
	k       *sim.Kernel
	bus     *can.Bus
	agent   *Agent
	sa      *StandbyAgent
	clients []*Client
}

func newStandbyRig(n int, seed uint64, hb HeartbeatConfig) *standbyRig {
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)

	actrl := bus.Attach(agentTxNode)
	agent := NewAgent(k, actrl)
	actrl.OnReceive = func(f can.Frame, at sim.Time) {
		if f.ID.Etag() == ConfigEtag {
			agent.HandleFrame(f, at)
		}
	}

	sctrl := bus.Attach(agentTxNode + 1)
	replica := NewAgent(k, sctrl)
	sa := NewStandbyAgent(k, replica, hb)
	sctrl.OnReceive = func(f can.Frame, at sim.Time) {
		if f.ID.Etag() == ConfigEtag {
			sa.HandleFrame(f, at)
		}
	}

	r := &standbyRig{k: k, bus: bus, agent: agent, sa: sa}
	for i := 0; i < n; i++ {
		ctrl := bus.Attach(tempNodeLo + can.TxNode(i))
		cl := NewClient(k, ctrl)
		ctrl.OnReceive = func(f can.Frame, at sim.Time) {
			if f.ID.Etag() == ConfigEtag {
				cl.HandleFrame(f, at)
			}
		}
		r.clients = append(r.clients, cl)
	}
	agent.StartHeartbeat(hb)
	sa.Start()
	return r
}

var testHB = HeartbeatConfig{Period: 5 * sim.Millisecond, MissLimit: 2}

// TestStandbyReplicatesBindsBySnooping: bindings created through the live
// agent appear in the passive standby's replica by reply snooping alone.
func TestStandbyReplicatesBindsBySnooping(t *testing.T) {
	r := newStandbyRig(2, 1, testHB)
	var e500, e600 can.Etag
	r.clients[0].Bind(500, func(e can.Etag, err error) { e500 = e })
	r.clients[1].Bind(600, func(e can.Etag, err error) { e600 = e })
	r.k.Run(50 * sim.Millisecond)
	if e500 == 0 || e600 == 0 {
		t.Fatalf("binds did not complete: %d %d", e500, e600)
	}
	if r.sa.Active() {
		t.Fatal("standby took over while the agent was alive")
	}
	tab := r.sa.Agent().Table
	if got, ok := tab.Lookup(500); !ok || got != e500 {
		t.Fatalf("replica Lookup(500) = %d,%v, want %d", got, ok, e500)
	}
	if got, ok := tab.Lookup(600); !ok || got != e600 {
		t.Fatalf("replica Lookup(600) = %d,%v, want %d", got, ok, e600)
	}
	if tab.NextEtag() != r.agent.Table.NextEtag() {
		t.Fatalf("allocation pointers diverge: %d vs %d", tab.NextEtag(), r.agent.Table.NextEtag())
	}
}

// TestStandbyConvergesViaCheckpoints: state created before the standby
// heard any traffic (an off-line table plus preassignments) reaches the
// replica through the cycling checkpoint stream.
func TestStandbyConvergesViaCheckpoints(t *testing.T) {
	r := newStandbyRig(0, 2, testHB)
	// Seed agent state the standby never saw on the wire.
	for s := Subject(900); s < 905; s++ {
		if _, err := r.agent.Table.Bind(s); err != nil {
			t.Fatal(err)
		}
	}
	r.agent.Preassign(0xAA01, 9)
	r.agent.Preassign(0xAA02, 10)
	// One checkpoint pair per beat: 5 bindings + 2 uids need ≥ 7 beats.
	r.k.Run(15 * testHB.Period)
	tab := r.sa.Agent().Table
	for s := Subject(900); s < 905; s++ {
		want, _ := r.agent.Table.Lookup(s)
		if got, ok := tab.Lookup(s); !ok || got != want {
			t.Fatalf("replica Lookup(%d) = %d,%v, want %d", s, got, ok, want)
		}
	}
}

// TestStandbyTakeoverWithinWindow: a silenced agent triggers takeover no
// later than Period·(MissLimit+1) plus one tick, and the promoted replica
// serves binds consistently with the old agent's allocations.
func TestStandbyTakeoverWithinWindow(t *testing.T) {
	r := newStandbyRig(1, 3, testHB)
	var e500 can.Etag
	r.clients[0].Bind(500, func(e can.Etag, err error) { e500 = e })
	r.k.Run(30 * sim.Millisecond)
	if e500 == 0 {
		t.Fatal("warm-up bind did not complete")
	}

	var tookOver sim.Time
	r.sa.OnTakeover = func(at sim.Time) { tookOver = at }
	killedAt := r.k.Now()
	r.agent.Ctrl.Detach()
	window := testHB.Period * sim.Duration(testHB.MissLimit+2)
	r.k.Run(killedAt + 10*window)
	if !r.sa.Active() {
		t.Fatal("standby never took over")
	}
	if tookOver == 0 || tookOver-killedAt > window {
		t.Fatalf("takeover at %v, %v after kill, want ≤ %v", tookOver, tookOver-killedAt, window)
	}

	// The promoted replica serves the old binding unchanged and allocates
	// fresh etags past the replicated pointer.
	var again, fresh can.Etag
	r.clients[0].Bind(500, func(e can.Etag, err error) { again = e })
	r.clients[0].Bind(700, func(e can.Etag, err error) { fresh = e })
	r.k.Run(r.k.Now() + 100*sim.Millisecond)
	if again != e500 {
		t.Fatalf("rebind after takeover: etag %d, want %d", again, e500)
	}
	if fresh == 0 || fresh == e500 {
		t.Fatalf("fresh bind after takeover: etag %d", fresh)
	}
}

// TestStandbyServesJoinAfterTakeover: uid→node assignments replicated by
// snooping survive the takeover, so a station re-joining against the new
// agent receives its original TxNode.
func TestStandbyServesJoinAfterTakeover(t *testing.T) {
	r := newStandbyRig(2, 4, testHB)
	var first can.TxNode
	r.clients[0].Join(0xBEEF01, func(n can.TxNode, err error) {
		if err != nil {
			t.Errorf("join: %v", err)
		}
		first = n
	})
	r.k.Run(50 * sim.Millisecond)
	if first == 0 {
		t.Fatal("warm-up join did not complete")
	}

	r.agent.Ctrl.Detach()
	r.k.Run(r.k.Now() + 10*testHB.Period)
	if !r.sa.Active() {
		t.Fatal("standby never took over")
	}
	var second can.TxNode
	r.clients[1].Join(0xBEEF01, func(n can.TxNode, err error) {
		if err != nil {
			t.Errorf("re-join: %v", err)
		}
		second = n
	})
	r.k.Run(r.k.Now() + 100*sim.Millisecond)
	if second != first {
		t.Fatalf("re-join against standby assigned node %d, want %d", second, first)
	}
}

// TestStandbyHoldsWhileOwnStationDown: a detached standby must not promote
// itself — it can neither observe heartbeats nor serve anyone.
func TestStandbyHoldsWhileOwnStationDown(t *testing.T) {
	r := newStandbyRig(0, 5, testHB)
	r.k.Run(20 * sim.Millisecond)
	r.sa.Agent().Ctrl.Detach() // standby station crashes
	r.agent.Ctrl.Detach()      // and so does the agent
	r.k.Run(r.k.Now() + 20*testHB.Period)
	if r.sa.Active() {
		t.Fatal("detached standby promoted itself")
	}
	// Back on the bus, with the agent still dead, it promotes normally.
	r.sa.Agent().Ctrl.Reattach()
	r.k.Run(r.k.Now() + 10*testHB.Period)
	if !r.sa.Active() {
		t.Fatal("reattached standby never took over from the dead agent")
	}
}
