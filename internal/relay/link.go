package relay

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/gateway"
)

// Config parameterises a relay endpoint (Server or Uplink).
type Config struct {
	// Segment names the local bus segment; it is announced in Hello and
	// used by peers as the federation loop guard.
	Segment string
	// HeartbeatEvery is the wall-clock heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout closes a link that stayed silent this long
	// (default 3×HeartbeatEvery). An uplink then re-dials under Retry.
	HeartbeatTimeout time.Duration
	// SRTQueueCap bounds the per-peer SRT egress queue (default 256;
	// the NRT queue holds nrtQueueCap, HRT is unbounded).
	SRTQueueCap int
	// Retry is the uplink re-dial schedule; the zero value selects
	// binding.DefaultRetryPolicy (capped exponential, seeded jitter).
	Retry binding.RetryPolicy
	// Seed feeds the retry jitter RNG.
	Seed uint64
	// Trace, when non-nil, receives link lifecycle and frame-fate
	// events. It is invoked from network goroutines and must be
	// thread-safe; daemons forward into kernel context via sim.Paced.
	Trace func(Event)
}

func (c Config) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return time.Second
	}
	return c.HeartbeatEvery
}

func (c Config) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout <= 0 {
		return 3 * c.heartbeatEvery()
	}
	return c.HeartbeatTimeout
}

// Event is one relay-level occurrence reported through Config.Trace.
type Event struct {
	// Kind is one of "up", "down", "redial", "drop", "late".
	Kind string
	// Peer labels the remote end (its segment name once Hello arrived,
	// the network address before).
	Peer string
	// Detail is a short human-readable explanation.
	Detail string
	// Frame carries the affected event for drop/late kinds.
	Frame *gateway.RemoteEvent
}

// Counters aggregates a relay endpoint's statistics. All fields are
// maintained atomically; read them with the accessor methods.
type Counters struct {
	sent, received     atomic.Uint64
	dropped, late      atomic.Uint64
	redials, linkDowns atomic.Uint64
	bytesIn, bytesOut  atomic.Uint64
	decodeErrs, refuse atomic.Uint64
}

// Sent reports frames written to peers.
func (c *Counters) Sent() uint64 { return c.sent.Load() }

// Received reports frames decoded from peers.
func (c *Counters) Received() uint64 { return c.received.Load() }

// Dropped reports frames shed by backpressure or expiry.
func (c *Counters) Dropped() uint64 { return c.dropped.Load() }

// Late reports HRT frames forwarded after their budget ran out.
func (c *Counters) Late() uint64 { return c.late.Load() }

// Redials reports uplink re-dial attempts.
func (c *Counters) Redials() uint64 { return c.redials.Load() }

// LinkDowns reports connections lost.
func (c *Counters) LinkDowns() uint64 { return c.linkDowns.Load() }

// BytesIn and BytesOut report wire traffic including framing.
func (c *Counters) BytesIn() uint64  { return c.bytesIn.Load() }
func (c *Counters) BytesOut() uint64 { return c.bytesOut.Load() }

// frameHook is an endpoint's inbound-event callback. Connections read it
// per frame, so one accepted or dialled before OnFrame still delivers
// once the callback is installed.
type frameHook struct {
	fn atomic.Pointer[func(gateway.RemoteEvent)]
}

func (h *frameHook) set(fn func(gateway.RemoteEvent)) { h.fn.Store(&fn) }

func (h *frameHook) deliver(re gateway.RemoteEvent) {
	if fn := h.fn.Load(); fn != nil && *fn != nil {
		(*fn)(re)
	}
}

// conn wraps one established TCP connection with the relay protocol:
// a reader goroutine decoding incoming messages, a writer goroutine
// draining the egress queue and emitting heartbeats, and the peer's
// subscription table for egress filtering.
type conn struct {
	cfg   Config
	c     net.Conn
	q     *egressQueue
	cnt   *Counters
	trace func(Event)

	subMu    sync.Mutex
	peerSubs map[binding.Subject]subscription
	peerSeg  atomic.Value // string

	lastRx atomic.Int64 // unix nanos of last inbound message

	wmu sync.Mutex    // serialises writes (writer loop + control messages)
	bw  *bufio.Writer // over c, guarded by wmu

	onFrame func(gateway.RemoteEvent)
	onClose func(*conn, string)

	closed    chan struct{}
	closeOnce sync.Once
	reason    atomic.Value // string
}

func newConn(c net.Conn, cfg Config, q *egressQueue, cnt *Counters,
	onFrame func(gateway.RemoteEvent), onClose func(*conn, string)) *conn {
	pc := &conn{
		cfg:      cfg,
		c:        c,
		bw:       bufio.NewWriter(c),
		q:        q,
		cnt:      cnt,
		trace:    cfg.Trace,
		peerSubs: make(map[binding.Subject]subscription),
		onFrame:  onFrame,
		onClose:  onClose,
		closed:   make(chan struct{}),
	}
	pc.lastRx.Store(time.Now().UnixNano())
	return pc
}

// peerName labels the peer for trace events.
func (pc *conn) peerName() string {
	if s, _ := pc.peerSeg.Load().(string); s != "" {
		return s
	}
	return pc.c.RemoteAddr().String()
}

func (pc *conn) emit(kind, detail string, re *gateway.RemoteEvent) {
	if pc.trace != nil {
		pc.trace(Event{Kind: kind, Peer: pc.peerName(), Detail: detail, Frame: re})
	}
}

// close shuts the connection down once, recording the reason.
func (pc *conn) close(reason string) {
	pc.closeOnce.Do(func() {
		pc.reason.Store(reason)
		close(pc.closed)
		pc.c.Close()
		pc.cnt.linkDowns.Add(1)
		pc.emit("down", reason, nil)
		if pc.onClose != nil {
			pc.onClose(pc, reason)
		}
	})
}

// start launches the reader and writer loops after sending the local
// Hello and the given initial subscriptions.
func (pc *conn) start(initialSubs []subscription) error {
	hello, err := encodeHello(pc.cfg.Segment)
	if err != nil {
		return err
	}
	if err := pc.write(hello); err != nil {
		return err
	}
	for _, s := range initialSubs {
		b, err := encodeSub(s)
		if err != nil {
			return err
		}
		if err := pc.write(b); err != nil {
			return err
		}
	}
	go pc.readLoop()
	go pc.writeLoop()
	return nil
}

// write frames one message and sends it at once.
func (pc *conn) write(b []byte) error {
	if err := pc.buffer(b); err != nil {
		return err
	}
	return pc.flush()
}

// buffer frames one message into the write buffer; it leaves with the
// next flush, or earlier when the buffer fills.
func (pc *conn) buffer(b []byte) error {
	pc.wmu.Lock()
	n, err := writeMsg(pc.bw, b)
	pc.wmu.Unlock()
	pc.cnt.bytesOut.Add(uint64(n))
	return err
}

func (pc *conn) flush() error {
	pc.wmu.Lock()
	err := pc.bw.Flush()
	pc.wmu.Unlock()
	return err
}

// sendSub transmits a subscription control message mid-session.
func (pc *conn) sendSub(s subscription) error {
	b, err := encodeSub(s)
	if err != nil {
		return err
	}
	return pc.write(b)
}

// sendUnsub transmits an unsubscription control message.
func (pc *conn) sendUnsub(subject binding.Subject) error {
	return pc.write(encodeUnsub(subject))
}

// wantsFrame evaluates the peer's subscription table (subject + origin
// filter) and the origin-segment echo guard against one event.
func (pc *conn) wantsFrame(re gateway.RemoteEvent) bool {
	if seg, _ := pc.peerSeg.Load().(string); seg != "" && seg == re.OriginSeg {
		return false // never echo an event back toward its origin segment
	}
	pc.subMu.Lock()
	s, ok := pc.peerSubs[re.Subject]
	pc.subMu.Unlock()
	return ok && s.accepts(re.Origin)
}

// readLoop decodes inbound messages until the connection dies.
func (pc *conn) readLoop() {
	r := bufio.NewReader(pc.c)
	var codec can.Codec
	for {
		msg, err := readMsg(r)
		if err != nil {
			pc.close("read: " + err.Error())
			return
		}
		pc.cnt.bytesIn.Add(uint64(len(msg) + 4))
		pc.lastRx.Store(time.Now().UnixNano())
		switch msg[0] {
		case msgHello:
			ver, seg, err := decodeHello(msg[1:])
			if err != nil || ver != ProtoVersion {
				pc.close(fmt.Sprintf("hello: version %d, err %v", ver, err))
				return
			}
			first := pc.peerSeg.Load() == nil
			pc.peerSeg.Store(seg)
			if first {
				pc.emit("up", "hello from "+seg, nil)
			}
		case msgSub:
			s, err := decodeSub(msg[1:])
			if err != nil {
				pc.close("sub: " + err.Error())
				return
			}
			pc.subMu.Lock()
			pc.peerSubs[s.Subject] = s
			pc.subMu.Unlock()
		case msgUnsub:
			subj, err := decodeUnsub(msg[1:])
			if err != nil {
				pc.close("unsub: " + err.Error())
				return
			}
			pc.subMu.Lock()
			delete(pc.peerSubs, subj)
			pc.subMu.Unlock()
		case msgFrame:
			re, err := decodeFrame(&codec, msg[1:])
			if err != nil {
				// A frame that fails its CAN CRC or structure check is
				// stream corruption; drop the link rather than guess.
				pc.cnt.decodeErrs.Add(1)
				pc.close("frame: " + err.Error())
				return
			}
			pc.cnt.received.Add(1)
			if pc.onFrame != nil {
				pc.onFrame(re)
			}
		case msgHeartbeat:
			// lastRx already refreshed above.
		default:
			pc.close(fmt.Sprintf("unknown message type %d", msg[0]))
			return
		}
	}
}

// writeLoop drains the egress queue, paces heartbeats and enforces the
// receive-liveness timeout.
func (pc *conn) writeLoop() {
	hb := time.NewTicker(pc.cfg.heartbeatEvery())
	defer hb.Stop()
	for {
		select {
		case <-pc.closed:
			return
		case <-hb.C:
			silence := time.Since(time.Unix(0, pc.lastRx.Load()))
			if silence > pc.cfg.heartbeatTimeout() {
				pc.close(fmt.Sprintf("heartbeat timeout (%v silent)", silence.Round(time.Millisecond)))
				return
			}
			if err := pc.write([]byte{msgHeartbeat}); err != nil {
				pc.close("heartbeat write: " + err.Error())
				return
			}
		case <-pc.q.notify:
			// The backlog goes out in one flush once the queue is empty: a
			// write (and a wake-up of the peer's reader) per burst, not per
			// frame, which is what bounds throughput on a busy link.
			for {
				now := time.Now()
				it, ok, shed := pc.q.pop(now)
				pc.account(shed)
				if !ok {
					break
				}
				if it.late {
					pc.cnt.late.Add(1)
					pc.emit("late", "HRT past budget, forwarded", &it.re)
				}
				if err := pc.buffer(it.wire); err != nil {
					pc.close("write: " + err.Error())
					return
				}
				pc.cnt.sent.Add(1)
			}
			if err := pc.flush(); err != nil {
				pc.close("write: " + err.Error())
				return
			}
		}
	}
}

// account counts and traces items the queue discarded.
func (pc *conn) account(fates []fate) {
	for _, f := range fates {
		pc.cnt.dropped.Add(1)
		pc.emit("drop", f.reason, &f.item.re)
	}
}
