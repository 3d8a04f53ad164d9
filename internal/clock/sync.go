package clock

import (
	"encoding/binary"

	"canec/internal/can"
	"canec/internal/sim"
)

// Sync frame payload layout: byte 0 carries the message type in the high
// nibble and a 4-bit sequence number in the low nibble; FOLLOW-UP frames
// additionally carry the master's captured timestamp as 7 little-endian
// bytes (2^56 ns ≈ 833 days of simulated time), fitting CAN's 8-byte
// payload limit.
const (
	msgSync     = 0x1
	msgFollowUp = 0x2
)

func packHeader(typ byte, seq uint8) byte { return typ<<4 | seq&0x0f }

func putTS(dst []byte, ts sim.Time) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ts))
	copy(dst, buf[:7])
}

func getTS(src []byte) sim.Time {
	var buf [8]byte
	copy(buf[:7], src)
	// Sign-extend: local clocks can read negative early in a run when a
	// node starts with a negative offset.
	if buf[6]&0x80 != 0 {
		buf[7] = 0xff
	}
	return sim.Time(binary.LittleEndian.Uint64(buf[:]))
}

// SyncConfig parameterises the synchronization protocol.
type SyncConfig struct {
	// Period between synchronization rounds. The paper assumes the
	// combination of sync quality and frequency keeps the precision below
	// the ΔG_min = 40 µs inter-slot gap.
	Period sim.Duration
	// Prio used for sync frames. The default of 1 places them directly
	// below the HRT priority 0, so their medium-access latency is bounded
	// by one frame length plus pending HRT traffic.
	Prio can.Prio
	// Etag reserved for the synchronization channel.
	Etag can.Etag
	// Quantization is the timestamping granularity at the receivers: each
	// captured timestamp gets uniform noise in [−Q, +Q]. A CAN controller
	// timestamps with bit-time granularity, so 1 µs is realistic at
	// 1 Mbit/s.
	Quantization sim.Duration
	// MaxDriftPPM is the assumed bound on per-node clock rate error, the
	// parameter of the holdover uncertainty model (how fast clocks can
	// diverge while no master is correcting them). Zero disables growth.
	MaxDriftPPM float64
	// FailoverRounds is how many consecutive missed sync rounds the
	// highest-ranked backup master tolerates before taking over; each
	// lower rank waits one additional round, which staggers the takeover
	// deterministically. Zero selects 3.
	FailoverRounds int
}

// failoverRounds returns the effective takeover threshold.
func (c SyncConfig) failoverRounds() int {
	if c.FailoverRounds <= 0 {
		return 3
	}
	return c.FailoverRounds
}

// DefaultSyncConfig matches the paper's environment: 1 µs timestamp
// granularity, sync every 100 ms, priority 1.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{
		Period:       100 * sim.Millisecond,
		Prio:         1,
		Etag:         can.MaxEtag, // highest etag reserved for sync
		Quantization: 1 * sim.Microsecond,
	}
}

// Syncer runs master-based clock synchronization over a CAN bus, in the
// style of Gergeleit/Streich [9]: a SYNC frame is timestamped by all nodes
// at its (bus-wide simultaneous) completion instant, then the master
// broadcasts its captured timestamp in a FOLLOW-UP frame; receivers apply
// the difference as a state correction.
type Syncer struct {
	K      *sim.Kernel
	Cfg    SyncConfig
	Bus    *can.Bus
	Master int // controller index of the acting time master

	clocks []*Clock
	seq    uint8
	rxTS   []map[uint8]sim.Time // per node: seq -> local rx timestamp

	// Rounds counts completed synchronization rounds; Takeovers counts
	// master failovers.
	Rounds    int
	Takeovers int

	// Down, if set, reports whether a station is currently crashed. A down
	// master emits nothing (its frames would pile up in a detached
	// controller), and a down backup is skipped in the failover ranking.
	Down func(int) bool

	// OnTakeover fires after a backup promotes itself to acting master.
	OnTakeover func(master int, at sim.Time)
	// OnHoldover fires when a follower enters (enter=true) or leaves
	// holdover: the explicit state between masters in which its clock
	// free-runs on its last rate with a growing uncertainty bound.
	OnHoldover func(node int, enter bool, at sim.Time)

	backups    []int // ranked backup masters (index 0 = first successor)
	lastWire   sim.Time
	lastAdj    []sim.Time // per node: kernel time of the last correction
	inHoldover []bool
	started    bool
}

// NewSyncer creates a synchronization service for the given clocks
// (indexed by controller index; clocks[Master] is the reference).
func NewSyncer(k *sim.Kernel, bus *can.Bus, cfg SyncConfig, master int, clocks []*Clock) *Syncer {
	s := &Syncer{K: k, Cfg: cfg, Bus: bus, Master: master, clocks: clocks}
	s.rxTS = make([]map[uint8]sim.Time, len(clocks))
	for i := range s.rxTS {
		s.rxTS[i] = make(map[uint8]sim.Time)
	}
	s.lastAdj = make([]sim.Time, len(clocks))
	s.inHoldover = make([]bool, len(clocks))
	return s
}

// SetBackups installs the ranked list of backup time masters. Rank r takes
// over after FailoverRounds+r missed rounds, so a dead first backup delays
// — never prevents — failover to the second.
func (s *Syncer) SetBackups(ranked []int) {
	s.backups = append([]int(nil), ranked...)
}

// Backups returns the ranked backup masters.
func (s *Syncer) Backups() []int { return s.backups }

// down reports whether a station is known-crashed.
func (s *Syncer) down(i int) bool { return s.Down != nil && s.Down(i) }

// Start schedules the periodic sync rounds and the failover/holdover
// watchdog. The first round fires immediately so that a freshly configured
// system converges before HRT traffic begins.
func (s *Syncer) Start() {
	if s.started {
		return
	}
	s.started = true
	var round func()
	round = func() {
		s.sendSync()
		s.K.After(s.Cfg.Period, round)
	}
	s.K.After(0, round)
	var watch func()
	watch = func() {
		s.sweep()
		s.K.After(s.Cfg.Period, watch)
	}
	s.K.After(s.Cfg.Period, watch)
}

// sendSync emits one SYNC frame and, once it completes on the wire, the
// FOLLOW-UP carrying the master's captured transmission timestamp. A dead
// or detached master emits nothing: the silence is what the backups and
// the holdover machinery detect.
func (s *Syncer) sendSync() {
	master := s.Master
	ctrl := s.Bus.Controller(master)
	if ctrl.Muted() || s.down(master) {
		return
	}
	s.seq++
	seq := s.seq
	sync := can.Frame{
		ID:   can.MakeID(s.Cfg.Prio, ctrl.Node(), s.Cfg.Etag),
		Data: []byte{packHeader(msgSync, seq)},
	}
	ctrl.Submit(sync, can.SubmitOpts{Done: func(ok bool, at sim.Time) {
		if !ok {
			return
		}
		s.lastWire = at
		// The master timestamps the same completion instant the receivers
		// saw, with the same quantization.
		txLocal := s.stamp(master, at)
		fu := make([]byte, 8)
		fu[0] = packHeader(msgFollowUp, seq)
		putTS(fu[1:], txLocal)
		ctrl.Submit(can.Frame{
			ID:   can.MakeID(s.Cfg.Prio, ctrl.Node(), s.Cfg.Etag),
			Data: fu,
		}, can.SubmitOpts{})
	}})
}

// sweep is the once-per-period watchdog: it moves silent followers into
// holdover and promotes the highest-ranked live backup once the master has
// been silent past its rank's threshold.
func (s *Syncer) sweep() {
	now := s.K.Now()
	// Holdover entry: a follower that has seen no correction for more than
	// two sync periods can no longer assume the π precision bound.
	for i := range s.clocks {
		if i == s.Master || s.inHoldover[i] || s.down(i) || s.Bus.Controller(i).Muted() {
			continue // a crashed station is down, not in holdover
		}
		ref := s.lastAdj[i]
		if now-ref > 2*s.Cfg.Period {
			s.inHoldover[i] = true
			if s.OnHoldover != nil {
				s.OnHoldover(i, true, now)
			}
		}
	}
	// Failover: rank r of the backup list tolerates FailoverRounds+r
	// missed rounds. Ranks are checked best-first, so the takeover is
	// deterministic: the highest-ranked live backup always wins.
	silent := now - s.lastWire
	for r, b := range s.backups {
		if b == s.Master || s.down(b) || s.Bus.Controller(b).Muted() {
			continue
		}
		threshold := sim.Duration(s.Cfg.failoverRounds()+r) * s.Cfg.Period
		if silent > threshold {
			s.takeover(b, now)
		}
		return // lower ranks wait for this one's longer threshold
	}
}

// takeover promotes backup b to acting master. Its clock is stepped
// forward by the current holdover uncertainty so that every follower's
// first correction under the new master is non-negative: global time may
// jump forward across a master switch, but never backward.
func (s *Syncer) takeover(b int, now sim.Time) {
	step := s.Uncertainty(b, now)
	s.clocks[b].AdjustBy(now, step)
	s.Master = b
	s.Takeovers++
	s.lastWire = now
	s.lastAdj[b] = now
	if s.inHoldover[b] {
		s.inHoldover[b] = false
		if s.OnHoldover != nil {
			s.OnHoldover(b, false, now)
		}
	}
	if s.OnTakeover != nil {
		s.OnTakeover(b, now)
	}
	s.sendSync()
}

// stamp reads node i's local clock at true time at, with quantization
// noise.
func (s *Syncer) stamp(i int, at sim.Time) sim.Time {
	ts := s.clocks[i].Read(at)
	if q := s.Cfg.Quantization; q > 0 {
		ts += s.K.RNG().Jitter(q)
	}
	return ts
}

// HandleFrame processes a received sync-channel frame at receiver node.
// The core middleware (or a test harness) routes frames with the sync etag
// here.
func (s *Syncer) HandleFrame(node int, f can.Frame, at sim.Time) {
	if len(f.Data) < 1 || node == s.Master {
		return
	}
	seq := f.Data[0] & 0x0f
	switch f.Data[0] >> 4 {
	case msgSync:
		s.rxTS[node][seq] = s.stamp(node, at)
	case msgFollowUp:
		if len(f.Data) < 8 {
			return
		}
		rx, ok := s.rxTS[node][seq]
		if !ok {
			return
		}
		delete(s.rxTS[node], seq)
		masterTx := getTS(f.Data[1:])
		s.clocks[node].AdjustBy(at, masterTx-rx)
		s.lastAdj[node] = at
		if s.inHoldover[node] {
			s.inHoldover[node] = false
			if s.OnHoldover != nil {
				s.OnHoldover(node, false, at)
			}
		}
		if node == s.lastNonMaster() {
			s.Rounds++
		}
	}
}

// Uncertainty returns the worst-case bound on how far node's clock may
// currently be from any other synchronized clock: the steady-state
// precision π while corrections are flowing, growing by twice the maximum
// drift rate for every second past the expected correction period. The
// acting master is the time reference, but its distance to followers is
// still bounded by the same model (they drift from it symmetrically), so
// it reports the same bound anchored at the last wire round.
func (s *Syncer) Uncertainty(node int, now sim.Time) sim.Duration {
	ref := s.lastAdj[node]
	if node == s.Master {
		ref = s.lastWire
	}
	return HoldoverUncertainty(s.Cfg, now-ref)
}

// HoldoverUncertainty is the holdover model: elapsed time since the last
// correction maps to a pairwise clock uncertainty of
//
//	π + 2·d_max·max(0, elapsed − Period)
//
// — the steady-state precision bound while corrections arrive on schedule,
// then linear growth at the worst-case relative drift rate 2·d_max.
func HoldoverUncertainty(cfg SyncConfig, elapsed sim.Duration) sim.Duration {
	base := PrecisionBound(cfg, cfg.MaxDriftPPM)
	extra := elapsed - cfg.Period
	if extra <= 0 {
		return base
	}
	return base + sim.Duration(2*cfg.MaxDriftPPM*1e-6*float64(extra))
}

// lastNonMaster returns the highest node index that is not the master,
// used only to count completed rounds.
func (s *Syncer) lastNonMaster() int {
	for i := len(s.clocks) - 1; i >= 0; i-- {
		if i != s.Master {
			return i
		}
	}
	return s.Master
}

// PrecisionBound returns the analytical worst-case pairwise precision π
// for the given configuration and maximum absolute drift. Right after an
// adjustment each slave is within 2Q of the master's local time (one
// quantization error at the master stamp, one at the slave stamp), so two
// slaves differ by at most 4Q; between adjustments two slaves drift apart
// at a relative rate of at most 2·d_max, accumulating 2·d_max·Period. One
// extra microsecond absorbs second-order terms (follow-up latency times
// drift, rounding).
func PrecisionBound(cfg SyncConfig, maxDriftPPM float64) sim.Duration {
	driftPart := 2 * maxDriftPPM * 1e-6 * float64(cfg.Period)
	return 4*cfg.Quantization + sim.Duration(driftPart) + sim.Microsecond
}
