package binding

import (
	"canec/internal/can"
	"canec/internal/sim"
)

// StandbyAgent is the hot standby of the configuration agent. It passively
// replicates the authoritative subject→etag table and the uid→TxNode
// allocation by snooping the configuration channel — the agent's reply
// frames pair request content with allocation results, the periodic beat
// carries the allocation pointers, and the checkpoint stream walks the full
// state one entry per beat so a standby that missed traffic still
// converges. When the agent falls silent for longer than the configured
// heartbeat window, the standby deterministically takes over the agent
// role: its replica starts serving bind and join requests and beating.
//
// The takeover transfers the *role*, not the wire identity: replies are
// sent from the standby station's own TxNode. Clients match replies purely
// on content (request id + subject / uid), never on the sender's node
// number, so the switch is invisible to them.
type StandbyAgent struct {
	K   *sim.Kernel
	Cfg HeartbeatConfig

	// OnTakeover, if set, fires once when the standby promotes itself.
	OnTakeover func(at sim.Time)

	inner    *Agent
	active   bool
	lastSeen sim.Time

	// Passive-snoop pairing state: outstanding bind requests by rid, and
	// joining uids by their low 48 bits (the ack truncates the uid).
	reqSubject map[uint8]Subject
	joinUID    map[uint64]uint64
	// Checkpoint pairing: key frames by sequence number, and whether the
	// key has been consumed by a value frame.
	ckptKey map[uint8]uint64
}

// NewStandbyAgent wraps a replica agent (whose Table and preassignments
// the caller seeds with the off-line configuration) as a hot standby.
func NewStandbyAgent(k *sim.Kernel, replica *Agent, cfg HeartbeatConfig) *StandbyAgent {
	return &StandbyAgent{
		K: k, Cfg: cfg.WithDefaults(), inner: replica,
		reqSubject: make(map[uint8]Subject),
		joinUID:    make(map[uint64]uint64),
		ckptKey:    make(map[uint8]uint64),
	}
}

// Agent returns the replica, which becomes the acting agent on takeover.
func (s *StandbyAgent) Agent() *Agent { return s.inner }

// Active reports whether the standby has taken over the agent role.
func (s *StandbyAgent) Active() bool { return s.active }

// Start arms the takeover watchdog. Each tick checks how long the agent
// has been silent; past Period·MissLimit the standby promotes itself.
func (s *StandbyAgent) Start() {
	s.lastSeen = s.K.Now()
	var tick func()
	tick = func() {
		if s.active {
			return
		}
		if s.inner.Ctrl.Muted() {
			// The standby station itself is down: it can neither observe
			// nor take over. Keep ticking; a restart re-syncs the replica
			// through the checkpoint stream.
			s.lastSeen = s.K.Now()
		} else if s.K.Now()-s.lastSeen > s.Cfg.Period*sim.Duration(s.Cfg.MissLimit) {
			s.takeover()
			return
		}
		s.K.After(s.Cfg.Period, tick)
	}
	s.K.After(s.Cfg.Period, tick)
}

// takeover promotes the replica to acting agent: it starts serving
// requests (via HandleFrame delegation) and beating, announcing the new
// regime to every client and any future standby.
func (s *StandbyAgent) takeover() {
	s.active = true
	now := s.K.Now()
	s.inner.StartHeartbeat(s.Cfg)
	if s.OnTakeover != nil {
		s.OnTakeover(now)
	}
}

// HandleFrame processes one configuration-channel frame. Passive mode
// snoops; active mode serves through the replica.
func (s *StandbyAgent) HandleFrame(f can.Frame, at sim.Time) {
	if s.active {
		s.inner.HandleFrame(f, at)
		return
	}
	if len(f.Data) < 8 {
		return
	}
	op, low := f.Data[0]>>4, f.Data[0]&0x0f
	switch op {
	case opBindAck, opBindErr, opJoinAck, opBeat, opCkptKey, opCkptBind, opCkptNode:
		// Agent-originated: the agent is alive.
		s.lastSeen = at
	}
	switch op {
	case opBindReq:
		s.reqSubject[low] = Subject(get56(f.Data[1:]))

	case opBindAck:
		subj, ok := s.reqSubject[low]
		if !ok {
			return
		}
		var low40 uint64
		for i := 0; i < 5; i++ {
			low40 |= uint64(f.Data[3+i]) << (8 * i)
		}
		if uint64(subj)&(1<<40-1) != low40 {
			return // ack for another node's request under the same rid
		}
		delete(s.reqSubject, low)
		etag := can.Etag(f.Data[1]) | can.Etag(f.Data[2])<<8
		s.apply(subj, etag)

	case opBindErr:
		if subj, ok := s.reqSubject[low]; ok && uint64(subj) == get56(f.Data[1:]) {
			delete(s.reqSubject, low)
		}

	case opJoinReq:
		uid := get56(f.Data[1:])
		s.joinUID[uid&(1<<48-1)] = uid

	case opJoinAck:
		var low48 uint64
		for i := 0; i < 6; i++ {
			low48 |= uint64(f.Data[2+i]) << (8 * i)
		}
		uid, ok := s.joinUID[low48]
		if !ok {
			return
		}
		delete(s.joinUID, low48)
		s.inner.Preassign(uid, can.TxNode(f.Data[1]))

	case opBeat:
		next := can.Etag(f.Data[1]) | can.Etag(f.Data[2])<<8
		s.inner.Table.AdvanceNext(next)
		if n := can.TxNode(f.Data[3]); n > s.inner.nextNode {
			s.inner.nextNode = n
		}

	case opCkptKey:
		s.ckptKey[low] = get56(f.Data[1:])

	case opCkptBind:
		key, ok := s.ckptKey[low]
		if !ok {
			return
		}
		delete(s.ckptKey, low)
		etag := can.Etag(f.Data[1]) | can.Etag(f.Data[2])<<8
		s.apply(Subject(key), etag)

	case opCkptNode:
		key, ok := s.ckptKey[low]
		if !ok {
			return
		}
		delete(s.ckptKey, low)
		s.inner.Preassign(key, can.TxNode(f.Data[1]))
	}
}

// apply installs a replicated binding in the replica table. A conflict
// (the replica diverged, e.g. a stale snoop) is resolved in favour of the
// authoritative value heard on the wire.
func (s *StandbyAgent) apply(subj Subject, etag can.Etag) {
	if err := s.inner.Table.BindFixed(subj, etag); err == nil {
		return
	}
	// The wire is authoritative: drop whatever the replica had for this
	// subject or etag and retry.
	if old, ok := s.inner.Table.Lookup(subj); ok {
		s.inner.Table.unbind(subj, old)
	}
	if oldSubj, ok := s.inner.Table.SubjectOf(etag); ok {
		s.inner.Table.unbind(oldSubj, etag)
	}
	_ = s.inner.Table.BindFixed(subj, etag)
}
