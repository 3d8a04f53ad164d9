// Package calendar implements the reservation scheme for hard real-time
// event channels (paper §3.1–3.2): communication organised in rounds, a
// calendar of time slots (the analogue of TTP's Round Descriptor List),
// the slot geometry of Fig. 3 (latest-ready time, Latest Start Time,
// delivery deadline, ΔT_wait extension and ΔG_min gap), worst-case
// transmission times under an omission-fault assumption, and the off-line
// admission test that validates a calendar before it is deployed.
package calendar

import (
	"fmt"
	"sort"

	"canec/internal/can"
	"canec/internal/sim"
)

// Config carries the bus- and fault-model parameters the slot geometry
// depends on.
type Config struct {
	// BitRate of the bus (bits/s); 0 selects can.DefaultBitRate.
	BitRate int
	// GapMin is the minimal gap ΔG_min between adjacent hard real-time
	// slots, absorbing clock-sync imprecision. The paper conservatively
	// assumes 40 µs.
	GapMin sim.Duration
	// Wait is ΔT_wait: the time a just-started non-preemptable lower
	// priority frame can occupy the bus past the latest-ready instant.
	// Zero selects the worst-case 8-byte extended frame (160 bit times;
	// the paper quotes 154 µs under a milder stuffing assumption).
	Wait sim.Duration
	// OmissionDegree is the number k of consistent transmission faults a
	// hard real-time slot must absorb: the slot is dimensioned for k+1
	// transmission attempts plus k error-signalling overheads.
	OmissionDegree int
	// Precision is the clock synchronization precision π; delivery
	// deadlines must respect it. Used by the admission test to check
	// GapMin is sufficient.
	Precision sim.Duration
}

// DefaultConfig returns the paper's parameters: 1 Mbit/s, ΔG_min = 40 µs,
// worst-case ΔT_wait, omission degree 1.
func DefaultConfig() Config {
	return Config{
		BitRate:        can.DefaultBitRate,
		GapMin:         40 * sim.Microsecond,
		OmissionDegree: 1,
		Precision:      25 * sim.Microsecond,
	}
}

func (c Config) bitRate() int {
	if c.BitRate <= 0 {
		return can.DefaultBitRate
	}
	return c.BitRate
}

// WaitTime returns ΔT_wait for this configuration.
func (c Config) WaitTime() sim.Duration {
	if c.Wait > 0 {
		return c.Wait
	}
	return can.BitTime(can.WorstCaseBits(can.MaxPayload), c.bitRate())
}

// WCTT returns the worst-case transmission time for a payload of s bytes
// under the configured omission degree k: k+1 back-to-back worst-case
// transmissions, each failed attempt followed by error-frame signalling.
// This is the closed-form structure analysed in Livani/Kaiser [16].
func (c Config) WCTT(s int) sim.Duration {
	k := c.OmissionDegree
	frame := can.BitTime(can.WorstCaseBits(s), c.bitRate())
	errf := can.BitTime(can.ErrorOverheadBits, c.bitRate())
	return sim.Duration(k+1)*frame + sim.Duration(k)*errf
}

// SlotSpan returns the total reserved span of a slot for a payload of s
// bytes: ΔT_wait (blocking by a just-started lower-priority frame) plus
// the worst-case transmission time.
func (c Config) SlotSpan(s int) sim.Duration {
	return c.WaitTime() + c.WCTT(s)
}

// Slot is one reserved transmission window inside a round. Offsets are
// relative to the round start, in global (synchronized) time.
type Slot struct {
	// Subject identifies the event channel this slot carries.
	Subject uint64
	// Publisher is the only node allowed to transmit in this slot. If
	// multiple publishers feed one channel, each needs its own slot
	// (paper §3.1).
	Publisher can.TxNode
	// Ready is the latest-ready offset: the instant the message must be
	// available in the controller (start of the reserved span, Fig. 3).
	Ready sim.Duration
	// Payload is the slot's dimensioned payload size in bytes (≤ 8).
	Payload int
	// Periodic marks slots fed by periodic publications; sporadic slots
	// may stay unused, in which case CAN arbitration reclaims the
	// bandwidth automatically.
	Periodic bool
	// Every and Phase extend the schedule across rounds for channels
	// whose period is a multiple of the round (the cluster-cycle
	// generalisation of TTP's RODLs): the slot is active only in rounds r
	// with r ≡ Phase (mod Every). Every ≤ 1 means every round.
	Every int
	Phase int
}

// every normalises the Every field.
func (s Slot) every() int {
	if s.Every < 1 {
		return 1
	}
	return s.Every
}

// ActiveIn reports whether the slot is active in the given round.
func (s Slot) ActiveIn(round int64) bool {
	e := int64(s.every())
	return (round%e+e)%e == int64(s.Phase)
}

// NextActive returns the smallest active round ≥ from.
func (s Slot) NextActive(from int64) int64 {
	e := int64(s.every())
	r := from + ((int64(s.Phase)-from)%e+e)%e
	return r
}

// Period returns the slot's activation period in time units, given the
// round length.
func (s Slot) Period(round sim.Duration) sim.Duration {
	return sim.Duration(s.every()) * round
}

// LST returns the Latest Start Time offset of the slot: the instant the
// frame is guaranteed to win arbitration, Ready + ΔT_wait.
func (s Slot) LST(cfg Config) sim.Duration { return s.Ready + cfg.WaitTime() }

// Deadline returns the delivery-deadline offset: LST plus the worst-case
// transmission time. The middleware delivers the event to subscribers
// exactly at this offset to cancel network-level jitter.
func (s Slot) Deadline(cfg Config) sim.Duration { return s.LST(cfg) + cfg.WCTT(s.Payload) }

// End returns the end of the reserved span (same as Deadline; kept
// separate for readability at call sites).
func (s Slot) End(cfg Config) sim.Duration { return s.Deadline(cfg) }

// Calendar is the static schedule of one round: the analogue of the Round
// Descriptor List. Calendars are built off-line, validated by Admit, and
// then distributed to every node.
type Calendar struct {
	// Round is the cycle length after which the schedule repeats.
	Round sim.Duration
	// Slots, sorted by Ready offset after a successful Admit.
	Slots []Slot
	// Cfg is the configuration the calendar was validated against.
	Cfg Config
}

// New returns an empty calendar with the given round length.
func New(round sim.Duration, cfg Config) *Calendar {
	return &Calendar{Round: round, Cfg: cfg}
}

// AdmissionError describes why a calendar was rejected.
type AdmissionError struct {
	Reason string
}

func (e *AdmissionError) Error() string { return "calendar: " + e.Reason }

// gcd returns the greatest common divisor of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// roundsCoincide reports whether two activation patterns r ≡ pa (mod ea)
// and r+shift ≡ pb (mod eb) share a solution: by the Chinese remainder
// theorem this holds iff pa ≡ pb − shift (mod gcd(ea, eb)).
func roundsCoincide(ea, pa, eb, pb, shift int) bool {
	g := gcd(ea, eb)
	return ((pa-pb+shift)%g+g)%g == 0
}

// Admit validates the calendar off-line, as the paper assumes (§3.1):
// slots must fit in the round, slots that can be active in the same round
// must not overlap and must keep at least ΔG_min between them (which
// itself must cover the clock precision π), and the wrap into the next
// round is checked for every round-coinciding pair. Multi-rate slots
// (Every > 1) may share the same window as long as their phase patterns
// never activate in the same round. On success the slots are left sorted
// by Ready offset.
func (c *Calendar) Admit() error {
	cfg := c.Cfg
	if cfg.GapMin < cfg.Precision {
		return &AdmissionError{fmt.Sprintf(
			"gap ΔG_min %v below clock precision π %v: adjacent slots can overlap in real time",
			cfg.GapMin, cfg.Precision)}
	}
	sort.SliceStable(c.Slots, func(i, j int) bool { return c.Slots[i].Ready < c.Slots[j].Ready })
	for i, s := range c.Slots {
		if s.Payload < 0 || s.Payload > can.MaxPayload {
			return &AdmissionError{fmt.Sprintf("slot %d payload %d out of range", i, s.Payload)}
		}
		if s.Ready < 0 {
			return &AdmissionError{fmt.Sprintf("slot %d ready offset negative", i)}
		}
		if s.End(cfg) > c.Round {
			return &AdmissionError{fmt.Sprintf(
				"slot %d (subject %d) ends at %v beyond round %v",
				i, s.Subject, s.End(cfg), c.Round)}
		}
		if s.Phase < 0 || s.Phase >= s.every() {
			return &AdmissionError{fmt.Sprintf(
				"slot %d phase %d outside [0, %d)", i, s.Phase, s.every())}
		}
	}
	for i := 0; i < len(c.Slots); i++ {
		for j := 0; j < len(c.Slots); j++ {
			a, b := c.Slots[i], c.Slots[j]
			// Same-round conflicts (i < j suffices: sorted by Ready).
			if i < j && roundsCoincide(a.every(), a.Phase, b.every(), b.Phase, 0) {
				if b.Ready < a.End(cfg)+cfg.GapMin {
					return &AdmissionError{fmt.Sprintf(
						"slots %d (subject %d) and %d (subject %d) share rounds: start %v needs ≥ %v",
						i, a.Subject, j, b.Subject, b.Ready, a.End(cfg)+cfg.GapMin)}
				}
			}
			// Wrap conflicts: a at the end of round r, b at the start of
			// round r+1 (includes a == b when Every == 1).
			if roundsCoincide(a.every(), a.Phase, b.every(), b.Phase, 1) {
				if b.Ready+c.Round < a.End(cfg)+cfg.GapMin {
					return &AdmissionError{fmt.Sprintf(
						"round wrap: slot %d (subject %d) ends at %v, slot %d (subject %d) of the next round starts at %v",
						i, a.Subject, a.End(cfg), j, b.Subject, b.Ready+c.Round)}
				}
			}
		}
	}
	return nil
}

// Utilization returns the long-run fraction of bus time reserved for
// hard real-time traffic (spans only, without gaps), accounting for
// multi-round activation periods.
func (c *Calendar) Utilization() float64 {
	if c.Round <= 0 {
		return 0
	}
	var sum float64
	for _, s := range c.Slots {
		sum += float64(s.End(c.Cfg)-s.Ready) / float64(s.every())
	}
	return sum / float64(c.Round)
}

// SlotsForSubject returns the slots carrying the given subject.
func (c *Calendar) SlotsForSubject(subj uint64) []Slot {
	var out []Slot
	for _, s := range c.Slots {
		if s.Subject == subj {
			out = append(out, s)
		}
	}
	return out
}

// PackSequential lays out the given slot requests back to back with the
// minimal admissible spacing, returning the resulting calendar. It is a
// convenience for constructing dense valid calendars in tests, benches and
// examples. The round length is the smallest multiple of quantum covering
// the packed slots (quantum 0 keeps the exact length).
func PackSequential(cfg Config, quantum sim.Duration, reqs ...Slot) (*Calendar, error) {
	var off sim.Duration
	cal := &Calendar{Cfg: cfg}
	for _, r := range reqs {
		r.Ready = off
		cal.Slots = append(cal.Slots, r)
		off = r.End(cfg) + cfg.GapMin
	}
	round := off
	if quantum > 0 && round%quantum != 0 {
		round = (round/quantum + 1) * quantum
	}
	cal.Round = round
	if err := cal.Admit(); err != nil {
		return nil, err
	}
	return cal, nil
}
