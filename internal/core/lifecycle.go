package core

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/obs"
	"canec/internal/sim"
)

// Lifecycle drives whole-node crash and recovery. A crash detaches the
// station's controller from the bus (flushing its transmit queues and
// truncating a frame on the wire into an error frame); a restart walks the
// full cold-boot recovery path the paper's dynamic configuration implies:
//
//  1. the controller re-attaches with power-up filters,
//  2. a fresh middleware replaces the crashed one (all host state is lost),
//  3. the node re-joins through the binding protocol and gets its original
//     TxNode back (the agent keeps uid→node assignments),
//  4. previously used subjects are re-bound over the wire,
//  5. the cold-booted clock waits for the next synchronization round,
//  6. OnRestart lets the application re-create its channels, which enter
//     the calendar at the current round phase (Middleware.startRound).
//
// The binding agent initially lives on station 0 (and, by convention, the
// sync master). Neither role pins its station forever: EnableStandby arms a
// hot-standby binding agent on another station, and ranked sync backups
// (SystemConfig.SyncBackups) arm time-master failover. A station hosting an
// active control-plane role can only be crashed while a live standby or
// backup exists to take the role over.
type Lifecycle struct {
	sys            *System
	agent          *binding.Agent
	agentStation   int
	standby        *binding.StandbyAgent
	standbyStation int // -1 while no standby is armed
	hbCfg          binding.HeartbeatConfig
	down           map[int]*crashRecord

	// OnRestart, if set, is invoked once a restarted node is fully
	// recovered (re-joined, re-bound, re-synced): the application
	// re-creates its channels on the fresh middleware, exactly as its
	// start-up code would.
	OnRestart func(node int, mw *Middleware)

	// OnRestartError, if set, is invoked when a restarting node exhausts
	// its bounded re-join attempts (binding's agent-unreachable error).
	// Recovery is not abandoned: the node keeps listening and re-joins in
	// the background once the agent is heard again.
	OnRestartError func(node int, err error)

	// CrashCount / RestartCount tally completed transitions;
	// AgentTakeovers counts standby promotions to the agent role.
	CrashCount, RestartCount, AgentTakeovers int

	// Bus-off recovery supervisor state (EnableBusOffRecovery):
	// BusOffRecovered tallies completed supervised rejoins across all
	// stations.
	busOffPol       BusOffPolicy
	busOffArmed     bool
	busOffStreak    map[int]int      // consecutive bus-offs per station
	busOffUpAt      map[int]sim.Time // last completed recovery per station
	BusOffRecovered int
}

// crashRecord is what survives a crash outside the node: the subjects the
// station had bound (for over-the-wire re-binding), when it went down, and
// whether it was the acting binding agent at the time (so its restart
// re-arms it as the new standby).
type crashRecord struct {
	channels []ChannelInfo
	at       sim.Time
	wasAgent bool
}

// uidOf derives the stable hardware UID of station i — the identity the
// binding agent keys node assignments on across reboots.
func uidOf(i int) uint64 { return 0x00C0FFEE00 + uint64(i) }

// recoveryPrio carries the join/bind handshake of a recovering station and
// the agent's replies. The binding default (lowest priority) assumes a
// lightly loaded bus; during recovery that would let saturated equal-priority
// NRT bulk traffic starve the handshake forever, because the client joins
// under a temporary high TxNode that loses every arbitration tie. The top of
// the SRT band preempts application traffic only for the handful of
// handshake frames a recovery needs.
var recoveryPrio = DefaultBands().SRT.Min

// rejoinFallback is the background re-join cadence of a node whose bounded
// join attempts failed: it retries either when the agent is heard on the
// wire again (heartbeat or any reply) or, failing that signal, on this
// slow timer.
const rejoinFallback = 500 * sim.Millisecond

// NewLifecycle installs a lifecycle manager: it hosts the binding agent on
// station 0 backed by the system's shared binding table, and pre-assigns
// every station's uid→TxNode so re-joins are stable.
func NewLifecycle(sys *System) *Lifecycle {
	lc := &Lifecycle{sys: sys, down: make(map[int]*crashRecord), standbyStation: -1}
	lc.agent = binding.NewAgent(sys.K, sys.Nodes[0].Ctrl)
	lc.agent.Table = sys.Bindings
	lc.agent.Prio = recoveryPrio
	for i := range sys.Nodes {
		lc.agent.Preassign(uidOf(i), can.TxNode(i))
	}
	sys.Nodes[0].MW.ConfigRx = lc.agent.HandleFrame
	if sys.Syncer != nil {
		// The syncer must not elect a crashed backup, and a dead master's
		// emission loop must go quiet instead of queueing zombie frames.
		sys.Syncer.Down = lc.Down
	}
	return lc
}

// AgentStation returns the station currently hosting the binding agent.
func (lc *Lifecycle) AgentStation() int { return lc.agentStation }

// Standby returns the armed standby agent (nil before EnableStandby and
// between a takeover and the old agent's restart).
func (lc *Lifecycle) Standby() *binding.StandbyAgent { return lc.standby }

// EnableStandby arms a hot-standby binding agent on the given station. The
// acting agent starts heartbeating and checkpointing its state; the standby
// replicates passively and takes the agent role over when the heartbeats
// stop for longer than cfg.Period·cfg.MissLimit. The zero cfg selects
// binding's default heartbeat (25 ms, three misses).
func (lc *Lifecycle) EnableStandby(station int, cfg binding.HeartbeatConfig) error {
	if station < 0 || station >= len(lc.sys.Nodes) {
		return fmt.Errorf("core: standby station %d of %d", station, len(lc.sys.Nodes))
	}
	if station == lc.agentStation {
		return fmt.Errorf("core: station %d already hosts the acting agent", station)
	}
	if lc.down[station] != nil {
		return fmt.Errorf("core: standby station %d is down", station)
	}
	if lc.standby != nil && !lc.standby.Active() {
		return fmt.Errorf("core: station %d is already the standby", lc.standbyStation)
	}
	lc.hbCfg = cfg
	lc.installStandby(station)
	lc.agent.StartHeartbeat(cfg)
	return nil
}

// installStandby builds the replica (seeded from the current authoritative
// state, as an off-line configuration distribution would) and arms its
// watchdog. The replica keeps converging on-line through the heartbeat and
// checkpoint stream.
func (lc *Lifecycle) installStandby(station int) {
	sys := lc.sys
	replica := binding.NewAgent(sys.K, sys.Nodes[station].Ctrl)
	replica.Table = sys.Bindings.Clone()
	replica.Prio = recoveryPrio
	for i := range sys.Nodes {
		replica.Preassign(uidOf(i), can.TxNode(i))
	}
	sa := binding.NewStandbyAgent(sys.K, replica, lc.hbCfg)
	sa.OnTakeover = func(at sim.Time) {
		lc.agent = sa.Agent()
		lc.agentStation = station
		lc.standby = nil
		lc.standbyStation = -1
		lc.AgentTakeovers++
		sys.Obs.Emit(0, obs.StageAgentTakeover, 0, station, 0, at, obs.DetailBindingAgent)
	}
	sys.Nodes[station].MW.ConfigRx = sa.HandleFrame
	lc.standby = sa
	lc.standbyStation = station
	sa.Start()
}

// Down reports whether station i is currently crashed.
func (lc *Lifecycle) Down(i int) bool { return lc.down[i] != nil }

// standbyAlive reports whether an armed, not-yet-promoted standby is up.
func (lc *Lifecycle) standbyAlive() bool {
	return lc.standby != nil && lc.down[lc.standbyStation] == nil
}

// backupAlive reports whether a ranked sync backup other than the acting
// master is up.
func (lc *Lifecycle) backupAlive(master int) bool {
	if lc.sys.Syncer == nil {
		return false
	}
	for _, b := range lc.sys.Syncer.Backups() {
		if b != master && lc.down[b] == nil {
			return true
		}
	}
	return false
}

// Crash takes station i down: middleware activity stops, queued HRT events
// are lost (their traces closed with a node_crash drop), and the
// controller detaches from the bus — a frame it has on the wire is
// truncated into an error frame, queued requests vanish without callbacks.
// The station hosting the acting binding agent (or the acting time master)
// can only be crashed while a live standby (or ranked backup) exists to
// take the role over.
func (lc *Lifecycle) Crash(i int) error {
	if lc.down[i] != nil {
		return fmt.Errorf("core: station %d is already down", i)
	}
	wasAgent := i == lc.agentStation
	if wasAgent && !lc.standbyAlive() {
		return fmt.Errorf("core: station %d hosts the binding agent and no live standby is armed; cannot crash it", i)
	}
	if lc.sys.Syncer != nil && i == lc.sys.Syncer.Master && !lc.backupAlive(i) {
		return fmt.Errorf("core: station %d is the acting time master and no live backup exists; cannot crash it", i)
	}
	node := lc.sys.Nodes[i]
	now := lc.sys.K.Now()
	rec := &crashRecord{channels: node.MW.Channels(), at: now, wasAgent: wasAgent}

	// Close the traces of events that die in the crashed node's queues,
	// in etag order: the host memory holding them is gone.
	for _, c := range rec.channels {
		ch := node.MW.channels[c.Etag]
		for _, q := range ch.hrtQueue {
			node.MW.Obs.Emit(q.ev.traceID, obs.StageDropped, HRT.Obs(), i,
				uint64(ch.subject), now, obs.DetailNodeCrash)
		}
		ch.hrtQueue = nil
	}

	node.MW.Stop()
	node.Ctrl.Detach()
	lc.down[i] = rec
	lc.CrashCount++
	lc.sys.Obs.Emit(0, obs.StageNodeDown, 0, i, 0, now, 0)
	return nil
}

// Restart brings station i back up and drives the full recovery path. It
// returns immediately; recovery proceeds in virtual time (join timeouts,
// binding round-trips, the next sync round) and ends with the OnRestart
// hook and a node_up trace record.
func (lc *Lifecycle) Restart(i int) error {
	rec := lc.down[i]
	if rec == nil {
		return fmt.Errorf("core: station %d is not down", i)
	}
	delete(lc.down, i)
	sys := lc.sys
	node := sys.Nodes[i]
	now := sys.K.Now()
	sys.Obs.Emit(0, obs.StageNodeRestart, 0, i, 0, now, 0)

	// Power-on: the controller re-attaches, a fresh middleware replaces
	// the crashed one (newMiddleware re-installs the receive path and the
	// two system filters), and the cold-booted clock reads an arbitrary
	// value until synchronization pulls it back. A power cycle clears
	// bus-off — the error counters live in the controller's volatile state.
	if node.Ctrl.State() == can.BusOff {
		node.Ctrl.Recover()
	}
	node.Ctrl.Reattach()
	mw := sys.newMiddleware(node)
	if sys.Syncer != nil {
		node.Clock.SetTo(now, 0) // cold RTC: re-sync will correct it
	}
	client := binding.NewClient(sys.K, node.Ctrl)
	client.Prio = recoveryPrio
	mw.ConfigRx = client.HandleFrame
	if i == lc.standbyStation && lc.standby != nil {
		// A rebooting standby station keeps snooping while it recovers:
		// without the tap its watchdog would mistake its own recovery
		// window for agent silence and promote a stale replica.
		sa := lc.standby
		mw.ConfigRx = func(f can.Frame, at sim.Time) {
			client.HandleFrame(f, at)
			sa.HandleFrame(f, at)
		}
	}

	lc.rejoin(i, node, mw, client, rec)
	return nil
}

// rejoin runs the join protocol with the client's bounded retry policy,
// then re-binds the subjects the station used before the crash. Exhausted
// attempts surface through OnRestartError and arm a background retry.
func (lc *Lifecycle) rejoin(i int, node *Node, mw *Middleware, client *binding.Client, rec *crashRecord) {
	client.Join(uidOf(i), func(_ can.TxNode, err error) {
		if mw.stopped || node.MW != mw {
			return // crashed again mid-recovery
		}
		if err != nil {
			lc.joinFailed(i, node, mw, client, rec, err)
			return
		}
		lc.rebind(i, node, mw, client, rec, 0)
	})
}

// joinFailed reports the typed error and keeps recovery alive in the
// background: the next agent frame the client hears (heartbeat or any
// reply) restarts the join immediately, with a slow fallback timer for
// configurations where the agent never volunteers traffic.
func (lc *Lifecycle) joinFailed(i int, node *Node, mw *Middleware, client *binding.Client, rec *crashRecord, err error) {
	if lc.OnRestartError != nil {
		lc.OnRestartError(i, err)
	}
	retried := false
	retry := func() {
		if retried || mw.stopped || node.MW != mw {
			return
		}
		retried = true
		client.OnAgentAlive = nil
		lc.rejoin(i, node, mw, client, rec)
	}
	client.OnAgentAlive = retry
	lc.sys.K.After(rejoinFallback, func() { retry() })
}

// rebind fetches the etag of each previously-bound subject over the wire,
// one at a time, installing the answers as fixed entries in the fresh
// middleware's private table. The agent serves them from the authoritative
// shared table, so the recovered node ends up with exactly the bindings it
// had — obtained honestly through the protocol, not by peeking at shared
// state.
func (lc *Lifecycle) rebind(i int, node *Node, mw *Middleware, client *binding.Client, rec *crashRecord, idx int) {
	if mw.stopped || node.MW != mw {
		return
	}
	if idx >= len(rec.channels) {
		lc.resync(i, node, mw, rec)
		return
	}
	info := rec.channels[idx]
	client.Bind(info.Subject, func(etag can.Etag, err error) {
		if err == nil {
			err = mw.Bindings.BindFixed(info.Subject, etag)
		}
		_ = err // an unbindable subject is skipped; the app will re-bind on demand
		lc.rebind(i, node, mw, client, rec, idx+1)
	})
}

// resync waits for the next clock adjustment (when synchronization runs)
// before declaring the node up: calendar re-entry needs a clock that is
// back inside the precision bound, or slots would fire at cold-boot times.
func (lc *Lifecycle) resync(i int, node *Node, mw *Middleware, rec *crashRecord) {
	finish := func() {
		if mw.stopped || node.MW != mw {
			return
		}
		lc.RestartCount++
		if rec.wasAgent && lc.standby == nil && i != lc.agentStation {
			// The deposed agent is back: it re-arms as the new standby,
			// re-syncing its replica through the checkpoint stream.
			lc.installStandby(i)
		} else if i == lc.standbyStation && lc.standby != nil {
			// The standby station rebooted: re-wire its frame tap onto the
			// fresh middleware (its replica converges via checkpoints).
			node.MW.ConfigRx = lc.standby.HandleFrame
		}
		if lc.OnRestart != nil {
			lc.OnRestart(i, mw)
		}
		if lc.sys.Obs.Enabled() {
			lc.sys.Obs.Emit(0, obs.StageNodeUp, 0, i, 0, lc.sys.K.Now(),
				obs.Text(fmt.Sprintf("outage %v", lc.sys.K.Now()-rec.at)))
		}
	}
	if lc.sys.Syncer == nil {
		finish()
		return
	}
	node.Clock.AfterNextAdjustment(finish)
}
