package chaos

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"canec/internal/core"
	"canec/internal/relay"
	"canec/internal/sim"
)

// LinkFaults parameterises fault injection on one relay TCP link.
type LinkFaults struct {
	// ExtraLatency delays every forwarded message by this much, in both
	// directions (one-way added latency per hop).
	ExtraLatency time.Duration
	// FrameLossRate drops each data-plane frame message with this
	// probability. Control messages (hello, subs, heartbeats) are never
	// dropped, so loss degrades the data plane without flapping the link.
	FrameLossRate float64
	// Seed feeds the loss RNG; runs with the same seed and traffic
	// interleaving drop the same frames.
	Seed uint64
}

// LinkProxy is a fault-injecting TCP proxy for relay links: an uplink
// dials the proxy, the proxy dials the real relay server and forwards
// length-prefixed relay messages, applying LinkFaults on the way and
// flapping (closing) live connections on demand. It lets chaos runs
// exercise link loss, added latency and reconnection without touching
// the relay implementation.
type LinkProxy struct {
	target string
	lis    net.Listener

	mu     sync.Mutex
	faults LinkFaults
	rng    *sim.RNG
	conns  map[net.Conn]struct{}
	closed bool

	// DroppedFrames counts data-plane messages discarded by loss
	// injection; Flaps counts ruptures forced via Flap.
	DroppedFrames atomic.Uint64
	Flaps         atomic.Uint64
}

// NewLinkProxy starts a proxy on an ephemeral localhost port that
// forwards to target (a relay.Server address).
func NewLinkProxy(target string, faults LinkFaults) (*LinkProxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: link proxy listen: %w", err)
	}
	p := &LinkProxy{
		target: target,
		lis:    lis,
		faults: faults,
		rng:    sim.NewRNG(faults.Seed ^ 0xD1CE),
		conns:  make(map[net.Conn]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address uplinks should dial.
func (p *LinkProxy) Addr() string { return p.lis.Addr().String() }

// SetFaults swaps the active fault set; it applies to messages forwarded
// from now on, over live connections too.
func (p *LinkProxy) SetFaults(f LinkFaults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Flap severs every live proxied connection. The relay endpoints see a
// peer disconnect; uplinks re-dial through the proxy.
func (p *LinkProxy) Flap() {
	p.Flaps.Add(1)
	p.mu.Lock()
	// order-free: every connection is closed under the lock; the peers
	// see the disconnects on wall-clock sockets, outside virtual time.
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the proxy and severs all connections.
func (p *LinkProxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.lis.Close()
	p.Flap()
}

func (p *LinkProxy) acceptLoop() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

func (p *LinkProxy) serve(client net.Conn) {
	server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		server.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[server] = struct{}{}
	p.mu.Unlock()
	closeBoth := func() {
		client.Close()
		server.Close()
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, server)
		p.mu.Unlock()
	}
	var once sync.Once
	go func() { p.pipe(client, server); once.Do(closeBoth) }()
	go func() { p.pipe(server, client); once.Do(closeBoth) }()
}

// pipe forwards relay messages from src to dst, injecting the currently
// configured faults. It understands only the outer length-prefixed
// framing, so it stays valid across protocol versions.
func (p *LinkProxy) pipe(src, dst net.Conn) {
	var hdr [4]byte
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > 1<<20 {
			return // corrupt stream; kill the proxied link
		}
		if int(n) > len(buf) {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		p.mu.Lock()
		f := p.faults
		drop := f.FrameLossRate > 0 && body[0] == relay.MsgFrame && p.rng.Bool(f.FrameLossRate)
		p.mu.Unlock()
		if drop {
			p.DroppedFrames.Add(1)
			continue
		}
		if f.ExtraLatency > 0 {
			time.Sleep(f.ExtraLatency)
		}
		if _, err := dst.Write(hdr[:]); err != nil {
			return
		}
		if _, err := dst.Write(body); err != nil {
			return
		}
	}
}

// RelayCheckContext parameterises the relay-liveness invariant checkers
// run after a link-chaos campaign.
type RelayCheckContext struct {
	// Events is the relay endpoint's Config.Trace stream, in order.
	Events []relay.Event
	// Counters is the endpoint's final statistics.
	Counters *relay.Counters
	// ConnectedAtEnd reports whether the link was up when the campaign
	// finished (uplink.Connected(), or server.Peers() > 0).
	ConnectedAtEnd bool
	// DeliveredAfterFaults counts frames that crossed the link after the
	// last fault was lifted; liveness demands it be positive when
	// RequireDelivery is set.
	DeliveredAfterFaults uint64
	RequireDelivery      bool
}

// CheckRelayLiveness replays a relay trace against the federation
// dependability invariants:
//
//   - hrt-never-dropped: no drop event may carry an HRT frame — the
//     relay policy forwards HRT late rather than shedding it.
//   - link-recovers: a link that went down during the campaign must be
//     up again at the end (re-dial liveness).
//   - relay-liveness: traffic flows again once faults are lifted.
//   - drop-accounting: every traced drop is counted, so operators can
//     alarm on the counters alone.
func CheckRelayLiveness(ctx RelayCheckContext) []Violation {
	var out []Violation
	drops := uint64(0)
	downs := 0
	for _, e := range ctx.Events {
		switch e.Kind {
		case "drop":
			drops++
			if e.Frame != nil && e.Frame.Class == core.HRT {
				out = append(out, Violation{
					Check: "hrt-never-dropped",
					Detail: fmt.Sprintf("relay dropped an HRT frame (peer %s: %s)",
						e.Peer, e.Detail),
				})
			}
		case "down":
			downs++
		}
	}
	if downs > 0 && !ctx.ConnectedAtEnd {
		out = append(out, Violation{
			Check:  "link-recovers",
			Detail: fmt.Sprintf("link went down %d time(s) and was still down at the end of the campaign", downs),
		})
	}
	if ctx.RequireDelivery && ctx.DeliveredAfterFaults == 0 {
		out = append(out, Violation{
			Check:  "relay-liveness",
			Detail: "no frames crossed the link after faults were lifted",
		})
	}
	if ctx.Counters != nil && ctx.Counters.Dropped() < drops {
		out = append(out, Violation{
			Check: "drop-accounting",
			Detail: fmt.Sprintf("trace shows %d drops but counters report %d",
				drops, ctx.Counters.Dropped()),
		})
	}
	return out
}
