package binding

import (
	"testing"
	"testing/quick"

	"canec/internal/can"
	"canec/internal/sim"
)

func TestSubjectValidate(t *testing.T) {
	if Subject(0).Validate() == nil {
		t.Fatal("subject 0 accepted")
	}
	if (maxSubject + 1).Validate() == nil {
		t.Fatal("oversized subject accepted")
	}
	if Subject(42).Validate() != nil {
		t.Fatal("valid subject rejected")
	}
}

func TestTableBindIdempotent(t *testing.T) {
	tb := NewTable()
	e1, err := tb.Bind(100)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tb.Bind(100)
	if err != nil || e2 != e1 {
		t.Fatalf("rebind gave %d/%v, want %d", e2, err, e1)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableBindDistinct(t *testing.T) {
	tb := NewTable()
	seen := make(map[can.Etag]bool)
	for s := Subject(1); s <= 100; s++ {
		e, err := tb.Bind(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen[e] {
			t.Fatalf("etag %d reused", e)
		}
		if e == ConfigEtag || e == SyncEtag {
			t.Fatalf("reserved etag %d allocated", e)
		}
		seen[e] = true
	}
}

func TestTableBidirectional(t *testing.T) {
	tb := NewTable()
	e, _ := tb.Bind(7)
	if got, ok := tb.Lookup(7); !ok || got != e {
		t.Fatal("Lookup failed")
	}
	if got, ok := tb.SubjectOf(e); !ok || got != 7 {
		t.Fatal("SubjectOf failed")
	}
	if _, ok := tb.Lookup(99); ok {
		t.Fatal("phantom lookup")
	}
}

func TestTableBindFixed(t *testing.T) {
	tb := NewTable()
	if err := tb.BindFixed(5, 100); err != nil {
		t.Fatal(err)
	}
	if err := tb.BindFixed(5, 100); err != nil {
		t.Fatal("idempotent fixed bind rejected")
	}
	if err := tb.BindFixed(5, 101); err != errConflict {
		t.Fatalf("conflicting subject rebind: %v", err)
	}
	if err := tb.BindFixed(6, 100); err != errConflict {
		t.Fatalf("conflicting etag rebind: %v", err)
	}
	if err := tb.BindFixed(7, ConfigEtag); err == nil {
		t.Fatal("reserved etag accepted")
	}
	if err := tb.BindFixed(7, SyncEtag); err == nil {
		t.Fatal("reserved etag accepted")
	}
	// Dynamic allocation must skip the fixed etag.
	for s := Subject(10); s < 120; s++ {
		e, err := tb.Bind(s)
		if err != nil {
			t.Fatal(err)
		}
		if e == 100 && s != 5 {
			t.Fatal("allocator reused fixed etag")
		}
	}
}

func TestTableExhaustion(t *testing.T) {
	tb := NewTable()
	for s := Subject(1); ; s++ {
		if _, err := tb.Bind(s); err != nil {
			if err != errExhausted {
				t.Fatalf("err = %v", err)
			}
			// All non-reserved etags allocated: 16384 − 2.
			if tb.Len() != int(can.MaxEtag)-1 {
				t.Fatalf("Len at exhaustion = %d", tb.Len())
			}
			return
		}
	}
}

func TestTableClone(t *testing.T) {
	tb := NewTable()
	tb.Bind(1)
	c := tb.Clone()
	c.Bind(2)
	if tb.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone not independent")
	}
	e1, _ := tb.Lookup(1)
	e1c, _ := c.Lookup(1)
	if e1 != e1c {
		t.Fatal("clone lost bindings")
	}
}

func TestWire56Roundtrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= uint64(maxSubject)
		var buf [7]byte
		Put56(buf[:], v)
		return get56(buf[:]) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestWire56Short: a buffer shorter than 7 bytes (a short HRT payload
// stamped with a kernel time) takes the low bytes, and reads back as them.
func TestWire56Short(t *testing.T) {
	buf := []byte{0xaa, 0xaa, 0xaa}
	Put56(buf, 0x0102030405)
	if want := []byte{0x05, 0x04, 0x03}; string(buf) != string(want) {
		t.Fatalf("Put56 into 3 bytes = % x, want % x", buf, want)
	}
	if got := get56(buf); got != 0x030405 {
		t.Fatalf("get56 of 3 bytes = %#x, want 0x030405", got)
	}
	Put56(nil, 1)
	if got := get56(nil); got != 0 {
		t.Fatalf("get56(nil) = %d", got)
	}
}

// protoRig wires an agent on node 0 and n clients on fresh controllers,
// routing config-channel frames to the right handlers.
func protoRig(n int, seed uint64) (*sim.Kernel, *Agent, []*Client) {
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	actrl := bus.Attach(agentTxNode)
	agent := NewAgent(k, actrl)
	actrl.OnReceive = func(f can.Frame, at sim.Time) {
		if f.ID.Etag() == ConfigEtag {
			agent.HandleFrame(f, at)
		}
	}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		ctrl := bus.Attach(tempNodeLo + can.TxNode(i)) // provisional
		cl := NewClient(k, ctrl)
		ctrl.OnReceive = func(f can.Frame, at sim.Time) {
			if f.ID.Etag() == ConfigEtag {
				cl.HandleFrame(f, at)
			}
		}
		clients[i] = cl
	}
	return k, agent, clients
}

func TestBindProtocol(t *testing.T) {
	k, _, clients := protoRig(2, 1)
	var got []can.Etag
	clients[0].Bind(500, func(e can.Etag, err error) {
		if err != nil {
			t.Errorf("bind: %v", err)
		}
		got = append(got, e)
	})
	clients[1].Bind(500, func(e can.Etag, err error) {
		if err != nil {
			t.Errorf("bind: %v", err)
		}
		got = append(got, e)
	})
	k.Run(1 * sim.Second)
	if len(got) != 2 {
		t.Fatalf("replies = %d", len(got))
	}
	if got[0] != got[1] {
		t.Fatalf("same subject bound to different etags: %v", got)
	}
}

func TestBindDifferentSubjects(t *testing.T) {
	k, _, clients := protoRig(1, 1)
	var e1, e2 can.Etag
	clients[0].Bind(500, func(e can.Etag, err error) { e1 = e })
	clients[0].Bind(600, func(e can.Etag, err error) { e2 = e })
	k.Run(1 * sim.Second)
	if e1 == 0 || e2 == 0 || e1 == e2 {
		t.Fatalf("etags = %d, %d", e1, e2)
	}
}

func TestBindInvalidSubject(t *testing.T) {
	k, _, clients := protoRig(1, 1)
	var gotErr error
	clients[0].Bind(0, func(_ can.Etag, err error) { gotErr = err })
	k.Run(100 * sim.Millisecond)
	if gotErr == nil {
		t.Fatal("invalid subject bound")
	}
}

func TestBindTimeoutWithoutAgent(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	ctrl := bus.Attach(5)
	cl := NewClient(k, ctrl)
	cl.Retry = RetryPolicy{Base: 10 * sim.Millisecond, Attempts: 3}
	var gotErr error
	done := false
	cl.Bind(42, func(_ can.Etag, err error) { gotErr = err; done = true })
	k.Run(1 * sim.Second)
	if !done || gotErr != errAgentUnreachable {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
}

func TestJoinProtocol(t *testing.T) {
	k, agent, clients := protoRig(3, 2)
	nodes := make([]can.TxNode, 3)
	for i, cl := range clients {
		i, cl := i, cl
		cl.Join(uint64(0x1000+i), func(n can.TxNode, err error) {
			if err != nil {
				t.Errorf("join %d: %v", i, err)
			}
			nodes[i] = n
		})
	}
	k.Run(2 * sim.Second)
	seen := make(map[can.TxNode]bool)
	for i, n := range nodes {
		if n == 0 {
			t.Fatalf("client %d not assigned", i)
		}
		if seen[n] {
			t.Fatalf("duplicate TxNode %d", n)
		}
		seen[n] = true
		if clients[i].Ctrl.Node() != n {
			t.Fatalf("controller %d not reconfigured", i)
		}
	}
	if len(agent.nodesByUID) != 3 {
		t.Fatalf("agent.Nodes = %d", len(agent.nodesByUID))
	}
}

func TestJoinIdempotentForUID(t *testing.T) {
	k, _, clients := protoRig(1, 3)
	var n1 can.TxNode
	clients[0].Join(0xabc, func(n can.TxNode, err error) { n1 = n })
	k.Run(1 * sim.Second)
	var n2 can.TxNode
	clients[0].Join(0xabc, func(n can.TxNode, err error) { n2 = n })
	k.Run(2 * sim.Second)
	if n1 == 0 || n1 != n2 {
		t.Fatalf("rejoin changed node: %d -> %d", n1, n2)
	}
}

func TestJoinCollisionResolution(t *testing.T) {
	// Many clients joining at the same instant: temporary-ID collisions
	// are possible and must resolve via single-shot failure + backoff.
	// Run with several seeds to exercise the collision path.
	for seed := uint64(1); seed <= 5; seed++ {
		k, _, clients := protoRig(8, seed)
		assigned := 0
		for i, cl := range clients {
			cl.Join(uint64(0x9000+i), func(n can.TxNode, err error) {
				if err == nil {
					assigned++
				}
			})
		}
		k.Run(5 * sim.Second)
		if assigned != 8 {
			t.Fatalf("seed %d: only %d/8 clients joined", seed, assigned)
		}
	}
}

func TestJoinInvalidUID(t *testing.T) {
	k, _, clients := protoRig(1, 1)
	var gotErr error
	clients[0].Join(0, func(_ can.TxNode, err error) { gotErr = err })
	k.Run(10 * sim.Millisecond)
	if gotErr == nil {
		t.Fatal("uid 0 accepted")
	}
}
