package relay

import (
	"net"
	"sync"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/gateway"
)

// Link is the transport face shared by Server and Uplink: what a Port
// (and through it a gateway.RemoteBridge) needs from a relay endpoint.
type Link interface {
	// Send enqueues an event toward the peer(s); wallDeadline is the
	// wall-clock instant the event's relay budget expires (zero = none).
	Send(re gateway.RemoteEvent, wallDeadline time.Time) error
	// Subscribe declares interest in a subject to the peer(s), with
	// optional origin-TxNode filtering applied at the sending relay.
	Subscribe(subject binding.Subject, include, exclude []can.TxNode) error
	// Unsubscribe withdraws a subscription.
	Unsubscribe(subject binding.Subject) error
	// OnFrame installs the inbound-event callback (network goroutine
	// context; Port re-injects into the kernel).
	OnFrame(fn func(gateway.RemoteEvent))
	// Counters exposes the endpoint's statistics.
	Counters() *Counters
	// Depths reports the endpoint's current egress backlog per class
	// (summed over peers on the listening side). Safe from any
	// goroutine; the admin plane polls it live.
	Depths() (hrt, srt, nrt int)
	// Close tears the endpoint down.
	Close() error
}

// Server is the listening side of a relay link. It accepts any number
// of peers; Send fans out to every peer whose subscription matches. In
// a chain topology each listener typically serves exactly one peer.
type Server struct {
	cfg Config
	ln  net.Listener
	cnt Counters

	onFrame frameHook

	mu     sync.Mutex
	conns  map[*conn]struct{}
	subs   map[binding.Subject]subscription
	closed bool
}

var _ Link = (*Server)(nil)

// Serve listens on addr (e.g. "127.0.0.1:0") and accepts peers in the
// background.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*conn]struct{}),
		subs:  make(map[binding.Subject]subscription),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address (with the ephemeral port
// resolved, for tests and logs).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Counters exposes the server's statistics.
func (s *Server) Counters() *Counters { return &s.cnt }

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		initial := make([]subscription, 0, len(s.subs))
		for _, sub := range s.subs {
			initial = append(initial, sub)
		}
		q := newEgressQueue(s.cfg.SRTQueueCap, s.cfg.NRTQueueCap)
		pc := newConn(c, s.cfg, q, &s.cnt, s.onFrame.deliver,
			func(dead *conn, _ string) {
				s.mu.Lock()
				delete(s.conns, dead)
				s.mu.Unlock()
			})
		s.conns[pc] = struct{}{}
		s.mu.Unlock()
		if err := pc.start(initial); err != nil {
			pc.close("handshake: " + err.Error())
		}
	}
}

// OnFrame installs the inbound-event callback for all peers, including
// those accepted before it: each frame reads the current callback.
func (s *Server) OnFrame(fn func(gateway.RemoteEvent)) { s.onFrame.set(fn) }

// Send fans the event out to every connected peer whose subscription
// matches its subject and origin. With no matching peer the event is
// dropped and counted (the relay cannot buffer for peers it has never
// seen).
func (s *Server) Send(re gateway.RemoteEvent, wallDeadline time.Time) error {
	s.mu.Lock()
	var targets []*conn
	for pc := range s.conns {
		if pc.wantsFrame(re) {
			targets = append(targets, pc)
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		s.cnt.refuse.Add(1)
		return nil // nothing subscribed: not an error, just no audience
	}
	var codec can.Codec
	wire, err := encodeFrame(&codec, re)
	if err != nil {
		return err
	}
	now := time.Now()
	for _, pc := range targets {
		fates := pc.q.push(qItem{re: re, wire: wire, wallDeadline: wallDeadline}, now)
		pc.account(fates)
	}
	return nil
}

// Subscribe records the subject (for replay to late-joining peers) and
// announces it to every current peer.
func (s *Server) Subscribe(subject binding.Subject, include, exclude []can.TxNode) error {
	sub := subscription{Subject: subject, Include: include, Exclude: exclude}
	s.mu.Lock()
	s.subs[subject] = sub
	conns := s.snapshot()
	s.mu.Unlock()
	for _, pc := range conns {
		if err := pc.sendSub(sub); err != nil {
			return err
		}
	}
	return nil
}

// Unsubscribe withdraws a subject from the stored set and all peers.
func (s *Server) Unsubscribe(subject binding.Subject) error {
	s.mu.Lock()
	delete(s.subs, subject)
	conns := s.snapshot()
	s.mu.Unlock()
	for _, pc := range conns {
		if err := pc.sendUnsub(subject); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) snapshot() []*conn {
	out := make([]*conn, 0, len(s.conns))
	for pc := range s.conns {
		out = append(out, pc)
	}
	return out
}

// Peers reports the number of live peer connections.
func (s *Server) Peers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Depths sums the egress backlog of every live peer connection, per
// class.
func (s *Server) Depths() (hrt, srt, nrt int) {
	s.mu.Lock()
	conns := s.snapshot()
	s.mu.Unlock()
	for _, pc := range conns {
		h, sq, n := pc.q.depths()
		hrt += h
		srt += sq
		nrt += n
	}
	return hrt, srt, nrt
}

// Close stops accepting and drops every peer.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := s.snapshot()
	s.mu.Unlock()
	err := s.ln.Close()
	for _, pc := range conns {
		pc.close("server shutdown")
	}
	return err
}
