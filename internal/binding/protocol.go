package binding

import (
	"errors"
	"fmt"
	"sort"

	"canec/internal/can"
	"canec/internal/sim"
)

// Wire message types (high nibble of payload byte 0 on the configuration
// channel). Bind requests carry a 4-bit request id in the low nibble so a
// client can tell replies to concurrent requests apart.
const (
	opBindReq = 0x1 // [op|rid][subject 7B]
	opBindAck = 0x2 // [op|rid][etag 2B LE][subject low 40 bits 5B]
	opBindErr = 0x3 // [op|rid][subject 7B]
	opJoinReq = 0x4 // [op][uid 7B]
	opJoinAck = 0x5 // [op][txnode 1B][uid low 48 bits 6B]

	// Hot-standby replication (see StandbyAgent). The agent's heartbeat
	// proves liveness and carries its allocation pointers; the checkpoint
	// pair walks the authoritative table one entry per beat, so a standby
	// that missed reply frames (it was down, or joined late) still
	// converges. A checkpoint entry needs a full 56-bit key plus its value,
	// which does not fit one 8-byte frame, so it is split into a key frame
	// followed by a value frame matched on the 4-bit sequence number.
	opBeat     = 0x6 // [op|seq][nextEtag 2B LE][nextNode 1B][bindCount 2B LE][nodeCount 2B LE]
	opCkptKey  = 0x7 // [op|seq][subject or uid 7B]
	opCkptBind = 0x8 // [op|seq][etag 2B LE]   (key was a subject)
	opCkptNode = 0x9 // [op|seq][txnode 1B]    (key was a uid)
)

// defaultPrio is the fixed priority of configuration traffic: the least
// urgent non real-time level, as configuration and maintenance are exactly
// what NRT channels are for (§2.2.3).
const defaultPrio can.Prio = can.MaxPrio

// agentTxNode is the pre-assigned node number of the configuration agent.
const agentTxNode can.TxNode = 0

// Put56 writes the low 56 bits of v into dst as 7 little-endian bytes,
// or into as many as dst holds. Subjects and UIDs travel this way in
// configuration frames, and experiment and scenario payloads carry a
// kernel timestamp this way.
func Put56(dst []byte, v uint64) {
	for i := 0; i < 7 && i < len(dst); i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// get56 reads what Put56 wrote: up to 7 little-endian bytes of src.
func get56(src []byte) uint64 {
	var v uint64
	for i := 0; i < 7 && i < len(src); i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	return v
}

// Agent serves bind and join requests. It owns the authoritative Table
// and the TxNode allocation. One agent exists per bus segment; the paper
// acknowledges the criticism of master-based schemes but uses a
// configuration master itself (ref [12]) since configuration is not on
// the critical real-time path.
type Agent struct {
	K     *sim.Kernel
	Ctrl  *can.Controller
	Table *Table
	Prio  can.Prio

	nodesByUID map[uint64]can.TxNode
	nextNode   can.TxNode

	hbCfg   HeartbeatConfig
	hbOn    bool
	hbSeq   uint8
	ckptIdx int
}

// NewAgent creates the configuration agent on the given controller (which
// must have TxNode agentTxNode).
func NewAgent(k *sim.Kernel, ctrl *can.Controller) *Agent {
	return &Agent{
		K: k, Ctrl: ctrl, Table: NewTable(), Prio: defaultPrio,
		nodesByUID: make(map[uint64]can.TxNode),
		nextNode:   agentTxNode + 1,
	}
}

// HandleFrame processes a configuration-channel frame. The owner of the
// controller's receive path routes etag ConfigEtag frames here.
func (a *Agent) HandleFrame(f can.Frame, _ sim.Time) {
	if len(f.Data) < 8 {
		return
	}
	op, rid := f.Data[0]>>4, f.Data[0]&0x0f
	switch op {
	case opBindReq:
		subject := Subject(get56(f.Data[1:]))
		etag, err := a.Table.Bind(subject)
		out := make([]byte, 8)
		if err != nil {
			out[0] = opBindErr<<4 | rid
			Put56(out[1:], uint64(subject))
		} else {
			out[0] = opBindAck<<4 | rid
			out[1] = byte(etag)
			out[2] = byte(etag >> 8)
			for i := 0; i < 5; i++ {
				out[3+i] = byte(uint64(subject) >> (8 * i))
			}
		}
		a.reply(out)

	case opJoinReq:
		uid := get56(f.Data[1:])
		node, ok := a.nodesByUID[uid]
		if !ok {
			if a.nextNode >= tempNodeLo {
				return // node space exhausted: stay silent, client times out
			}
			node = a.nextNode
			a.nextNode++
			a.nodesByUID[uid] = node
		}
		out := make([]byte, 8)
		out[0] = opJoinAck << 4
		out[1] = byte(node)
		for i := 0; i < 6; i++ {
			out[2+i] = byte(uid >> (8 * i))
		}
		a.reply(out)
	}
}

func (a *Agent) reply(payload []byte) {
	a.Ctrl.Submit(can.Frame{
		ID:   can.MakeID(a.Prio, a.Ctrl.Node(), ConfigEtag),
		Data: payload,
	}, can.SubmitOpts{})
}

// Preassign records a uid→node assignment made off-line (the statically
// configured stations of a segment), so a station re-joining after a crash
// gets its original node number back and fresh joins allocate beyond the
// static range.
func (a *Agent) Preassign(uid uint64, node can.TxNode) {
	a.nodesByUID[uid] = node
	if node >= a.nextNode {
		a.nextNode = node + 1
	}
}

// HeartbeatConfig parameterises the agent's liveness beacon and the
// standby's takeover watchdog.
type HeartbeatConfig struct {
	// Period between beats (and checkpoint pairs).
	Period sim.Duration
	// MissLimit is how many consecutive beat periods of agent silence the
	// standby tolerates before taking over. The takeover window is
	// therefore Period·MissLimit plus one watchdog tick.
	MissLimit int
}

// defaultHeartbeatConfig beats every 25 ms and tolerates three misses, so
// an agent crash is detected within ~100 ms — one clock-sync period.
func defaultHeartbeatConfig() HeartbeatConfig {
	return HeartbeatConfig{Period: 25 * sim.Millisecond, MissLimit: 3}
}

// WithDefaults fills zero fields.
func (c HeartbeatConfig) WithDefaults() HeartbeatConfig {
	d := defaultHeartbeatConfig()
	if c.Period <= 0 {
		c.Period = d.Period
	}
	if c.MissLimit <= 0 {
		c.MissLimit = d.MissLimit
	}
	return c
}

// StartHeartbeat begins the periodic liveness beacon: one beat frame per
// period carrying the allocation pointers, plus one checkpoint pair that
// cycles through the authoritative table and the uid→node map. Idempotent;
// the loop stops on its own once the agent's controller is detached (the
// crashed agent must not pile zombie frames into a muted controller).
func (a *Agent) StartHeartbeat(cfg HeartbeatConfig) {
	a.hbCfg = cfg.WithDefaults()
	if a.hbOn {
		return
	}
	a.hbOn = true
	var tick func()
	tick = func() {
		if !a.hbOn {
			return
		}
		if a.Ctrl.Muted() {
			a.hbOn = false // crashed: a restart re-arms explicitly
			return
		}
		a.beat()
		a.checkpoint()
		a.K.After(a.hbCfg.Period, tick)
	}
	a.K.After(0, tick)
}

// beat emits one liveness frame with the allocation pointers, letting the
// standby align its replica's next-etag/next-node counters even when no
// requests are in flight.
func (a *Agent) beat() {
	a.hbSeq = (a.hbSeq + 1) & 0x0f
	out := make([]byte, 8)
	out[0] = opBeat<<4 | a.hbSeq
	next := a.Table.NextEtag()
	out[1] = byte(next)
	out[2] = byte(next >> 8)
	out[3] = byte(a.nextNode)
	binds := a.Table.Len()
	out[4] = byte(binds)
	out[5] = byte(binds >> 8)
	nodes := len(a.nodesByUID)
	out[6] = byte(nodes)
	out[7] = byte(nodes >> 8)
	a.reply(out)
}

// checkpoint emits the next entry of the replication walk: first every
// subject→etag binding (in deterministic etag order), then every uid→node
// assignment (in uid order), then wraps around. Each entry is a key frame
// plus a value frame sharing the beat's sequence number.
func (a *Agent) checkpoint() {
	binds := a.Table.Snapshot()
	uids := a.sortedUIDs()
	total := len(binds) + len(uids)
	if total == 0 {
		return
	}
	idx := a.ckptIdx % total
	a.ckptIdx = (idx + 1) % total
	key := make([]byte, 8)
	key[0] = opCkptKey<<4 | a.hbSeq
	val := make([]byte, 8)
	if idx < len(binds) {
		b := binds[idx]
		Put56(key[1:], uint64(b.Subject))
		val[0] = opCkptBind<<4 | a.hbSeq
		val[1] = byte(b.Etag)
		val[2] = byte(b.Etag >> 8)
	} else {
		uid := uids[idx-len(binds)]
		Put56(key[1:], uid)
		val[0] = opCkptNode<<4 | a.hbSeq
		val[1] = byte(a.nodesByUID[uid])
	}
	a.reply(key)
	a.reply(val)
}

// sortedUIDs returns the assigned uids in ascending order (determinism on
// the wire; see checkpoint).
func (a *Agent) sortedUIDs() []uint64 {
	out := make([]uint64, 0, len(a.nodesByUID))
	// order-free: collect, then sort below.
	for uid := range a.nodesByUID {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Temporary TxNode range used by still-unconfigured nodes for their join
// requests. Collisions inside this range are possible and are resolved by
// the collision-detect/re-randomize loop in Client.Join.
const (
	tempNodeLo can.TxNode = 96
	tempNodeHi can.TxNode = can.MaxTxNode
)

// errAgentUnreachable is the terminal error of a request that exhausted
// its retry policy without ever hearing from an agent: the control plane
// is down (or unreachable from this node). Callers that want to recover
// should wait for agent liveness (Client.OnAgentAlive) and retry.
var errAgentUnreachable = errors.New("binding: configuration agent unreachable")

// errRejected is reported when the agent answered with a bind error
// (etag space exhausted or invalid subject).
var errRejected = errors.New("binding: request rejected by agent")

// errNotAttached is reported immediately when Bind or Join is called while
// the client's controller is detached from the bus: the request could
// never be transmitted, so failing it synchronously beats leaking a
// pending entry that can only time out.
var errNotAttached = errors.New("binding: controller not attached to the bus")

// RetryPolicy is the unified retry schedule shared by bind, join and the
// lifecycle re-join: capped exponential backoff with deterministic jitter
// drawn from the simulation seed. Attempt n (0-based) waits
// Base·2ⁿ (capped at Cap) plus a uniform jitter of up to JitterFrac of
// that wait before retrying; after Attempts sends the request fails with
// errAgentUnreachable.
type RetryPolicy struct {
	Base       sim.Duration
	Cap        sim.Duration
	Attempts   int
	JitterFrac float64
}

// DefaultRetryPolicy matches the protocol's historical first-attempt
// timeout (50 ms) and attempt count, adding the exponential cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Base:       50 * sim.Millisecond,
		Cap:        400 * sim.Millisecond,
		Attempts:   5,
		JitterFrac: 0.1,
	}
}

// Backoff returns the wait before retrying after attempt (0-based). The
// jitter comes from the kernel RNG, so it is deterministic per seed.
func (p RetryPolicy) Backoff(attempt int, rng *sim.RNG) sim.Duration {
	d := p.Base
	if d <= 0 {
		d = DefaultRetryPolicy().Base
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if p.JitterFrac > 0 && rng != nil {
		d += sim.Duration(float64(d) * p.JitterFrac * rng.Float64())
	}
	return d
}

func (p RetryPolicy) attempts() int {
	if p.Attempts <= 0 {
		return DefaultRetryPolicy().Attempts
	}
	return p.Attempts
}

// Client issues bind and join requests from a regular node.
type Client struct {
	K    *sim.Kernel
	Ctrl *can.Controller
	Prio can.Prio
	// Retry is the shared retry policy for bind and join requests.
	Retry RetryPolicy

	// OnAgentAlive, if set, fires whenever a frame proving agent liveness
	// arrives (a reply, a heartbeat or a checkpoint frame). The lifecycle
	// manager uses it to re-run a failed re-join as soon as the control
	// plane is back.
	OnAgentAlive func()

	nextRid uint8
	pending map[uint8]*bindCall
	joining *joinCall
}

type bindCall struct {
	subject Subject
	cb      func(can.Etag, error)
	attempt int
	timer   sim.Timer
}

type joinCall struct {
	uid     uint64
	cb      func(can.TxNode, error)
	attempt int
	defers  int
	timer   sim.Timer
}

// NewClient creates a configuration client on the given controller.
func NewClient(k *sim.Kernel, ctrl *can.Controller) *Client {
	return &Client{
		K: k, Ctrl: ctrl, Prio: defaultPrio,
		Retry:   DefaultRetryPolicy(),
		pending: make(map[uint8]*bindCall),
	}
}

// Bind asks the agent for the etag of subject; cb is invoked exactly once.
func (c *Client) Bind(subject Subject, cb func(can.Etag, error)) {
	if err := subject.Validate(); err != nil {
		cb(0, err)
		return
	}
	if c.Ctrl.Muted() {
		cb(0, errNotAttached)
		return
	}
	rid := c.nextRid & 0x0f
	c.nextRid++
	if _, busy := c.pending[rid]; busy {
		cb(0, fmt.Errorf("binding: too many concurrent bind requests"))
		return
	}
	call := &bindCall{subject: subject, cb: cb}
	c.pending[rid] = call
	c.sendBind(rid, call)
}

func (c *Client) sendBind(rid uint8, call *bindCall) {
	payload := make([]byte, 8)
	payload[0] = opBindReq<<4 | rid
	Put56(payload[1:], uint64(call.subject))
	c.Ctrl.Submit(can.Frame{
		ID:   can.MakeID(c.Prio, c.Ctrl.Node(), ConfigEtag),
		Data: payload,
	}, can.SubmitOpts{})
	wait := c.Retry.Backoff(call.attempt, c.K.RNG())
	call.attempt++
	call.timer = c.K.After(wait, func() {
		if c.pending[rid] != call {
			return
		}
		if call.attempt >= c.Retry.attempts() {
			delete(c.pending, rid)
			call.cb(0, errAgentUnreachable)
			return
		}
		c.sendBind(rid, call)
	})
}

// Join requests a TxNode assignment for this node's hardware UID. The
// request is sent with a random temporary TxNode from the configuration
// range; an identifier collision with another joining node corrupts the
// frame for both (see can.Bus), is observed through single-shot failure,
// and triggers re-randomization — the classic collision-resolution loop.
func (c *Client) Join(uid uint64, cb func(can.TxNode, error)) {
	if uid == 0 || uid > uint64(maxSubject) {
		cb(0, fmt.Errorf("binding: uid %#x out of range", uid))
		return
	}
	if c.Ctrl.Muted() {
		cb(0, errNotAttached)
		return
	}
	if c.joining != nil {
		cb(0, fmt.Errorf("binding: join already in progress"))
		return
	}
	call := &joinCall{uid: uid, cb: cb}
	c.joining = call
	c.sendJoin(call)
}

func (c *Client) sendJoin(call *joinCall) {
	if c.Ctrl.Pending() > 0 {
		// The previous attempt is still queued (congested bus): changing
		// the node number now would orphan it. Wait another round — but a
		// bounded number of them, or an agent outage under sustained load
		// would park the join here forever.
		call.defers++
		if call.defers > 4*c.Retry.attempts() {
			c.joining = nil
			call.cb(0, errAgentUnreachable)
			return
		}
		call.timer = c.K.After(c.Retry.Backoff(call.attempt, c.K.RNG()), func() {
			if c.joining == call {
				c.sendJoin(call)
			}
		})
		return
	}
	temp := tempNodeLo + can.TxNode(c.K.RNG().Intn(int(tempNodeHi-tempNodeLo)+1))
	c.Ctrl.SetNode(temp)
	payload := make([]byte, 8)
	payload[0] = opJoinReq << 4
	Put56(payload[1:], call.uid)
	wait := c.Retry.Backoff(call.attempt, c.K.RNG())
	call.attempt++
	c.Ctrl.Submit(can.Frame{
		ID:   can.MakeID(c.Prio, temp, ConfigEtag),
		Data: payload,
	}, can.SubmitOpts{
		SingleShot: true,
		Done: func(ok bool, _ sim.Time) {
			if ok || c.joining != call {
				return
			}
			// Collision or corruption: back off a random interval and
			// retry with a fresh temporary node number. The per-attempt
			// timeout is superseded by this faster retry path.
			c.K.Cancel(call.timer)
			if call.attempt >= c.Retry.attempts() {
				c.joining = nil
				call.cb(0, errAgentUnreachable)
				return
			}
			c.K.After(c.K.RNG().ExpDuration(2*sim.Millisecond), func() {
				if c.joining == call {
					c.sendJoin(call)
				}
			})
		},
	})
	call.timer = c.K.After(wait, func() {
		if c.joining != call {
			return
		}
		if call.attempt >= c.Retry.attempts() {
			c.joining = nil
			call.cb(0, errAgentUnreachable)
			return
		}
		c.sendJoin(call)
	})
}

// HandleFrame processes a configuration-channel frame received by this
// client's node.
func (c *Client) HandleFrame(f can.Frame, _ sim.Time) {
	if len(f.Data) < 8 {
		return
	}
	op, rid := f.Data[0]>>4, f.Data[0]&0x0f
	switch op {
	case opBindAck, opBindErr, opJoinAck, opBeat, opCkptKey, opCkptBind, opCkptNode:
		// Any agent-originated frame proves the control plane is alive.
		if c.OnAgentAlive != nil {
			c.OnAgentAlive()
		}
	}
	switch op {
	case opBindAck:
		call, ok := c.pending[rid]
		if !ok {
			return
		}
		var low40 uint64
		for i := 0; i < 5; i++ {
			low40 |= uint64(f.Data[3+i]) << (8 * i)
		}
		if uint64(call.subject)&(1<<40-1) != low40 {
			return // reply to another node's request with the same rid
		}
		delete(c.pending, rid)
		c.K.Cancel(call.timer)
		etag := can.Etag(f.Data[1]) | can.Etag(f.Data[2])<<8
		call.cb(etag, nil)

	case opBindErr:
		call, ok := c.pending[rid]
		if !ok || uint64(call.subject) != get56(f.Data[1:]) {
			return
		}
		delete(c.pending, rid)
		c.K.Cancel(call.timer)
		call.cb(0, errRejected)

	case opJoinAck:
		call := c.joining
		if call == nil {
			return
		}
		var low48 uint64
		for i := 0; i < 6; i++ {
			low48 |= uint64(f.Data[2+i]) << (8 * i)
		}
		if call.uid&(1<<48-1) != low48 {
			return
		}
		if c.Ctrl.Pending() > 0 {
			// A concurrent request (e.g. a bind issued before the join
			// finished) is still queued under the temporary node number;
			// switching now would orphan it. Drop the ack — the agent's
			// uid→node assignment is stable, so the timeout retry will be
			// acked with the same number once the queue drains.
			return
		}
		c.joining = nil
		c.K.Cancel(call.timer)
		node := can.TxNode(f.Data[1])
		c.Ctrl.SetNode(node)
		call.cb(node, nil)
	}
}
