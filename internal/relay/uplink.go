package relay

import (
	"fmt"
	"net"
	"sync"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/gateway"
	"canec/internal/sim"
)

// Uplink is the dialing side of a relay link. It maintains exactly one
// peer connection, re-dialing forever under the configured retry policy
// (capped exponential backoff with seeded jitter — the binding
// protocol's schedule reused for the network control plane). The egress
// queue survives disconnects: frames enqueued while the link is down
// are sent after the next successful dial, subject to the class policy
// (expired SRT copies are shed, NRT gives way first, HRT persists).
type Uplink struct {
	cfg  Config
	addr string
	q    *egressQueue
	cnt  Counters

	onFrame frameHook

	mu   sync.Mutex
	cur  *conn
	subs map[binding.Subject]subscription

	closed    chan struct{}
	closeOnce sync.Once
	redialNow chan struct{} // poked when the current conn dies
}

var _ Link = (*Uplink)(nil)

// Dial creates an uplink to addr and starts connecting in the
// background; it returns immediately (the first dial may still be in
// flight). Frames sent before the link is up wait on the egress queue.
func Dial(addr string, cfg Config) *Uplink {
	u := &Uplink{
		cfg:       cfg,
		addr:      addr,
		q:         newEgressQueue(cfg.SRTQueueCap, nrtQueueCap),
		subs:      make(map[binding.Subject]subscription),
		closed:    make(chan struct{}),
		redialNow: make(chan struct{}, 1),
	}
	go u.dialLoop()
	return u
}

// Counters exposes the uplink's statistics.
func (u *Uplink) Counters() *Counters { return &u.cnt }

// Depths reports the uplink's current egress backlog per class.
func (u *Uplink) Depths() (hrt, srt, nrt int) { return u.q.depths() }

// Connected reports whether a peer connection is currently live.
func (u *Uplink) Connected() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.cur != nil
}

// dialLoop keeps one connection alive, backing off between attempts.
func (u *Uplink) dialLoop() {
	rng := sim.NewRNG(u.cfg.Seed ^ 0x9e3779b97f4a7c15)
	policy := retryOrDefault(u.cfg.Retry)
	attempt := 0
	for {
		select {
		case <-u.closed:
			return
		default:
		}
		if attempt > 0 {
			// RetryPolicy speaks virtual nanoseconds; on the network
			// control plane they are wall nanoseconds 1:1.
			wait := time.Duration(policy.Backoff(attempt-1, rng))
			u.cnt.redials.Add(1)
			u.emit("redial", fmt.Sprintf("attempt %d in %v", attempt, wait.Round(time.Millisecond)))
			select {
			case <-time.After(wait):
			case <-u.closed:
				return
			}
		}
		attempt++
		c, err := net.DialTimeout("tcp", u.addr, u.cfg.heartbeatTimeout())
		if err != nil {
			continue
		}
		u.mu.Lock()
		initial := make([]subscription, 0, len(u.subs))
		for _, s := range u.subs {
			initial = append(initial, s)
		}
		pc := newConn(c, u.cfg, u.q, &u.cnt, u.onFrame.deliver,
			func(dead *conn, _ string) {
				u.mu.Lock()
				if u.cur == dead {
					u.cur = nil
				}
				u.mu.Unlock()
				select {
				case u.redialNow <- struct{}{}:
				default:
				}
			})
		u.cur = pc
		u.mu.Unlock()
		if err := pc.start(initial); err != nil {
			pc.close("handshake: " + err.Error())
			continue
		}
		attempt = 1 // connected: restart the backoff schedule at base
		// The queue may hold frames enqueued while we were down.
		u.q.wake()
		select {
		case <-pc.closed:
		case <-u.closed:
			pc.close("uplink shutdown")
			return
		}
		// Drain a stale redial poke before waiting on the next death.
		select {
		case <-u.redialNow:
		default:
		}
	}
}

func (u *Uplink) emit(kind, detail string) {
	if u.cfg.Trace != nil {
		u.cfg.Trace(Event{Kind: kind, Peer: u.addr, Detail: detail})
	}
}

// OnFrame installs the inbound-event callback. It applies from the
// next frame, also on a connection dialled before it.
func (u *Uplink) OnFrame(fn func(gateway.RemoteEvent)) { u.onFrame.set(fn) }

// Send enqueues an event toward the peer. The peer's subscription
// filter is applied remotely (the peer told *us* what it wants via Sub
// messages; an uplink mirrors that check before spending queue space).
func (u *Uplink) Send(re gateway.RemoteEvent, wallDeadline time.Time) error {
	u.mu.Lock()
	pc := u.cur
	u.mu.Unlock()
	if pc != nil && !pc.wantsFrame(re) {
		u.cnt.refuse.Add(1)
		return nil
	}
	var codec can.Codec
	wire, err := encodeFrame(&codec, re)
	if err != nil {
		return err
	}
	fates := u.q.push(qItem{re: re, wire: wire, wallDeadline: wallDeadline}, time.Now())
	for _, f := range fates {
		u.cnt.dropped.Add(1)
		if u.cfg.Trace != nil {
			u.cfg.Trace(Event{Kind: "drop", Peer: u.addr, Detail: f.reason, Frame: &f.item.re})
		}
	}
	return nil
}

// Subscribe declares interest in a subject; remembered across re-dials
// and replayed in every handshake.
func (u *Uplink) Subscribe(subject binding.Subject, include, exclude []can.TxNode) error {
	s := subscription{Subject: subject, Include: include, Exclude: exclude}
	u.mu.Lock()
	u.subs[subject] = s
	pc := u.cur
	u.mu.Unlock()
	if pc != nil {
		return pc.sendSub(s)
	}
	return nil
}

// Unsubscribe withdraws a subject.
func (u *Uplink) Unsubscribe(subject binding.Subject) error {
	u.mu.Lock()
	delete(u.subs, subject)
	pc := u.cur
	u.mu.Unlock()
	if pc != nil {
		return pc.sendUnsub(subject)
	}
	return nil
}

// Close stops the uplink and drops the connection.
func (u *Uplink) Close() error {
	u.closeOnce.Do(func() { close(u.closed) })
	u.mu.Lock()
	pc := u.cur
	u.mu.Unlock()
	if pc != nil {
		pc.close("uplink shutdown")
	}
	return nil
}
