package core

import (
	"testing"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/sim"
)

// TestDynamicBindingIntegration wires the run-time binding protocol
// (binding.Agent/Client) through the middleware's configuration-channel
// hook: a node without any static configuration joins the bus, obtains
// its TxNode, binds a subject dynamically, and only then announces and
// publishes on an SRT channel whose etag came from the agent.
func TestDynamicBindingIntegration(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Nodes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 hosts the configuration agent. Its middleware routes config
	// frames to the agent; note node 0's TxNode is the agent's pre-assigned TxNode 0.
	agent := binding.NewAgent(sys.K, sys.Node(0).Ctrl)
	sys.Node(0).MW.ConfigRx = agent.HandleFrame

	// Node 1 runs a binding client.
	client := binding.NewClient(sys.K, sys.Node(1).Ctrl)
	sys.Node(1).MW.ConfigRx = client.HandleFrame

	const subject binding.Subject = 0xD00D
	var boundEtag can.Etag
	published := false
	sys.K.At(sim.Millisecond, func() {
		client.Bind(subject, func(e can.Etag, err error) {
			if err != nil {
				t.Errorf("bind: %v", err)
				return
			}
			boundEtag = e
			// Install the agent's decision into the local (and here,
			// shared) table, then use the regular channel API.
			if err := sys.Bindings.BindFixed(subject, e); err != nil {
				t.Errorf("record binding: %v", err)
				return
			}
			ch, err := sys.Node(1).MW.SRTEC(subject)
			if err != nil {
				t.Errorf("channel: %v", err)
				return
			}
			if err := ch.Announce(ChannelAttrs{}, nil); err != nil {
				t.Errorf("announce: %v", err)
				return
			}
			// Leave the subscriber (which polls the table) time to install
			// its filter before the event goes out.
			sys.K.After(10*sim.Millisecond, func() {
				now := sys.Node(1).MW.LocalTime()
				if err := ch.Publish(Event{Subject: subject, Payload: []byte{0xBE},
					Attrs: EventAttrs{Deadline: now + 5*sim.Millisecond}}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				published = true
			})
		})
	})

	// Node 2 subscribes through the same shared table once the binding
	// exists (poll until then — a real node would bind itself).
	got := 0
	var trySub func()
	trySub = func() {
		if _, ok := sys.Bindings.Lookup(subject); !ok {
			sys.K.After(sim.Millisecond, trySub)
			return
		}
		sub, err := sys.Node(2).MW.SRTEC(subject)
		if err != nil {
			t.Errorf("subscriber channel: %v", err)
			return
		}
		sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
			func(ev Event, _ DeliveryInfo) {
				if ev.Payload[0] == 0xBE {
					got++
				}
			}, nil)
	}
	sys.K.At(sim.Millisecond, trySub)

	sys.Run(2 * sim.Second)
	if !published {
		t.Fatal("dynamic bind + publish never completed")
	}
	if boundEtag == 0 || boundEtag == binding.ConfigEtag || boundEtag == binding.SyncEtag {
		t.Fatalf("bound etag = %d", boundEtag)
	}
	if got != 1 {
		t.Fatalf("deliveries via dynamically bound channel = %d", got)
	}
	if agent.Table.Len() != 1 {
		t.Fatalf("agent table = %d bindings", agent.Table.Len())
	}
}
