package can

import (
	"fmt"

	"canec/internal/sim"
)

// FaultKind classifies what happens to one transmission attempt.
type FaultKind int

const (
	// FaultNone: the frame is received by every operational node and the
	// sender observes a successful, globally consistent transmission.
	FaultNone FaultKind = iota

	// FaultError: the frame is corrupted in a way some node detects; an
	// error frame is signalled, every node discards the frame, the bus is
	// occupied for ErrorOverheadBits extra bit times and the controller
	// automatically retransmits (unless in single-shot mode). This models
	// CAN's consistent omission handling: the sender *knows* the attempt
	// failed.
	FaultError

	// FaultOmission: an inconsistent omission — a subset of receivers miss
	// the frame (e.g. corruption in the last-but-one bit of EOF) while the
	// rest, including the sender, observe success. No error frame is
	// raised, so the sender cannot detect the loss. This is the failure
	// mode that motivates proactive time redundancy in the paper's HRT
	// scheme: "determine whether all operational nodes received the
	// message" only covers consistently-signalled faults.
	FaultOmission
)

// Fault describes the injected outcome of one transmission attempt.
type Fault struct {
	Kind FaultKind
	// Victims lists the receiving controller indices that silently miss
	// the frame when Kind == FaultOmission. Ignored otherwise.
	Victims map[int]bool
}

// Injector decides the fate of each transmission attempt. Implementations
// must draw all randomness from the supplied RNG so simulations stay
// deterministic per seed.
type Injector interface {
	Judge(f Frame, sender int, attempt int, at sim.Time, rng *sim.RNG) Fault
}

// NoFaults is an Injector that never injects anything.
type NoFaults struct{}

// Judge implements Injector.
func (NoFaults) Judge(Frame, int, int, sim.Time, *sim.RNG) Fault { return Fault{} }

// RandomErrors corrupts each attempt independently with probability Rate,
// producing consistent, detected errors (CAN error frames).
type RandomErrors struct {
	Rate float64
}

// Judge implements Injector.
func (r RandomErrors) Judge(_ Frame, _ int, _ int, _ sim.Time, rng *sim.RNG) Fault {
	if rng.Bool(r.Rate) {
		return Fault{Kind: FaultError}
	}
	return Fault{}
}

// RandomOmissions injects inconsistent omissions: with probability Rate a
// transmission is silently missed by each potential receiver independently
// with probability VictimProb.
//
// Receivers MUST be set to the total number of controllers on the bus:
// victims are drawn from controller indices [0, Receivers). The zero value
// would silently inject nothing (no indices to victimise), so Judge treats
// an unset Receivers as a configuration error and panics; construct the
// injector with NewRandomOmissions, which validates all three fields.
type RandomOmissions struct {
	Rate       float64
	VictimProb float64
	Receivers  int // total number of controllers on the bus (required, > 0)
}

// NewRandomOmissions returns a validated omission injector for a bus with
// the given number of controllers (e.g. bus.Controllers()).
func NewRandomOmissions(rate, victimProb float64, receivers int) RandomOmissions {
	if receivers <= 0 {
		panic(fmt.Sprintf("can: RandomOmissions needs a positive receiver count, got %d", receivers))
	}
	if rate < 0 || rate > 1 || victimProb < 0 || victimProb > 1 {
		panic(fmt.Sprintf("can: RandomOmissions probabilities out of [0,1]: rate=%v victimProb=%v", rate, victimProb))
	}
	return RandomOmissions{Rate: rate, VictimProb: victimProb, Receivers: receivers}
}

// Judge implements Injector.
func (r RandomOmissions) Judge(_ Frame, sender int, _ int, _ sim.Time, rng *sim.RNG) Fault {
	if r.Receivers <= 0 {
		panic("can: RandomOmissions.Receivers unset (would silently inject nothing); use NewRandomOmissions")
	}
	if !rng.Bool(r.Rate) {
		return Fault{}
	}
	victims := make(map[int]bool)
	for i := 0; i < r.Receivers; i++ {
		if i == sender {
			continue
		}
		if rng.Bool(r.VictimProb) {
			victims[i] = true
		}
	}
	if len(victims) == 0 {
		return Fault{}
	}
	return Fault{Kind: FaultOmission, Victims: victims}
}

// BurstErrors corrupts every attempt inside [Start, End): an EMI burst.
type BurstErrors struct {
	Start, End sim.Time
}

// Judge implements Injector.
func (b BurstErrors) Judge(_ Frame, _ int, _ int, at sim.Time, _ *sim.RNG) Fault {
	if at >= b.Start && at < b.End {
		return Fault{Kind: FaultError}
	}
	return Fault{}
}

// AdversarialK corrupts the first K attempts of every frame whose priority
// matches Prio (use -1 to match all). It produces the exact worst case the
// HRT slot dimensioning of the calendar must absorb: a message that fails
// K times and succeeds on attempt K+1.
type AdversarialK struct {
	K    int
	Prio int // -1 matches any priority
}

// Judge implements Injector.
func (a AdversarialK) Judge(f Frame, _ int, attempt int, _ sim.Time, _ *sim.RNG) Fault {
	if a.Prio >= 0 && int(f.ID.Prio()) != a.Prio {
		return Fault{}
	}
	if attempt <= a.K {
		return Fault{Kind: FaultError}
	}
	return Fault{}
}

// TargetedBitErrors models the adversary ECU of a bus-off attack: a
// station that monitors the bus for the victim's transmissions and drives
// dominant bits into them, so the victim observes a bit error on every
// corrupted attempt. Under fault confinement each such error adds 8 to the
// victim's TEC while the attacker's own counters stay clean — 32
// consecutive hits walk the victim ErrorActive → ErrorPassive → BusOff,
// exactly the progression the published bus-off attacks exploit. Rate is
// the per-attempt corruption probability (1.0 corrupts every attempt, the
// deterministic worst case).
type TargetedBitErrors struct {
	Victim int     // controller index whose transmissions are corrupted
	Rate   float64 // per-attempt corruption probability
	Prio   int     // -1 matches any priority
	// Active, if non-nil, gates the corruption: the chaos harness uses it
	// to stop the attack once the guardian isolates the attacking station
	// (an isolated attacker can no longer drive bits onto the wire).
	Active func() bool
}

// Judge implements Injector.
func (t TargetedBitErrors) Judge(f Frame, sender int, _ int, _ sim.Time, rng *sim.RNG) Fault {
	if sender != t.Victim {
		return Fault{}
	}
	if t.Prio >= 0 && int(f.ID.Prio()) != t.Prio {
		return Fault{}
	}
	if t.Active != nil && !t.Active() {
		return Fault{}
	}
	if rng.Bool(t.Rate) {
		return Fault{Kind: FaultError}
	}
	return Fault{}
}

// Chain applies multiple injectors and returns the first non-none verdict.
type Chain []Injector

// Judge implements Injector.
func (c Chain) Judge(f Frame, sender int, attempt int, at sim.Time, rng *sim.RNG) Fault {
	for _, in := range c {
		if v := in.Judge(f, sender, attempt, at, rng); v.Kind != FaultNone {
			return v
		}
	}
	return Fault{}
}

// FuncInjector adapts a plain function to the Injector interface.
type FuncInjector func(f Frame, sender int, attempt int, at sim.Time, rng *sim.RNG) Fault

// Judge implements Injector.
func (fn FuncInjector) Judge(f Frame, sender int, attempt int, at sim.Time, rng *sim.RNG) Fault {
	return fn(f, sender, attempt, at, rng)
}
