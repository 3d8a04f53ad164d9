package scenario

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/sim"
)

// The traffic shapes Build and the experiments both publish through. The
// kernel runs equal-instant events in scheduling order, so each shape keeps
// one order of look-ups, scheduling and RNG draws; what the hosts do
// differently is a parameter. A refused publish is part of what a run
// measures, so the publishers drop Publish's error. See DESIGN.md §4.

// Announce looks up subj's channel of the given class on mw and announces
// it with attrs and the publisher's exception handler.
func Announce(mw *core.Middleware, class core.Class, subj binding.Subject, attrs core.ChannelAttrs, exc core.ExceptionHandler) (core.Channel, error) {
	ch, err := mw.Channel(class, subj)
	if err == nil {
		err = ch.Announce(attrs, exc)
	}
	return ch, wiring(err, "announce", class, subj, mw)
}

// Subscribe looks up subj's channel of the given class on mw and
// subscribes to it with attrs, notify and exc.
func Subscribe(mw *core.Middleware, class core.Class, subj binding.Subject, attrs core.ChannelAttrs, notify core.NotificationHandler, exc core.ExceptionHandler) error {
	ch, err := mw.Channel(class, subj)
	if err == nil {
		err = ch.Subscribe(attrs, core.SubscribeAttrs{}, notify, exc)
	}
	return wiring(err, "subscribe", class, subj, mw)
}

// wiring names the step, class, subject and node of a wiring error and
// wraps it, so an *core.AdmissionError still matches errors.As.
func wiring(err error, step string, class core.Class, subj binding.Subject, mw *core.Middleware) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("scenario: %s %v subject %#x on node %d: %w", step, class, uint64(subj), mw.Node().Index, err)
}

// Stamp is an n-byte payload carrying the kernel time of its publish in
// up to seven bytes. Nothing reads it back; its bytes set the frame's bit
// stuffing, and so the wire times.
func Stamp(k *sim.Kernel, n int) []byte {
	p := make([]byte, n)
	binding.Put56(p, uint64(k.Now()))
	return p
}

// RoundPub is an HRT round publisher on the clock of its slot's publisher:
// each publish schedules the next active round r of Slot at Epoch +
// r·Round + At on that clock (WhenLocal), following clock corrections. It
// stops before round Rounds (0: no bound) and at End; Payload(r) runs at
// the publish instant. With Lifecycle set it is silent while its node is
// down (the cold clock would flood the recovered slot queue), and Restart
// re-anchors it in a new generation, which retires a loop that never saw
// a crash and restart inside one period.
type RoundPub struct {
	Sys       *core.System
	Slot      calendar.Slot
	Attrs     core.ChannelAttrs
	At        sim.Duration
	Rounds    int64
	End       sim.Time
	Payload   func(r int64) []byte
	Lifecycle *core.Lifecycle

	ch  core.Channel
	gen int
}

// Start announces the slot's subject on its publisher and schedules the
// first active round.
func (p *RoundPub) Start() error {
	return p.start(p.Sys.Node(p.node()).MW, p.Slot.NextActive(0), 0)
}

// Restart re-announces on the restarted station's middleware and starts a
// new generation at the first round still ahead of its re-synced clock.
func (p *RoundPub) Restart(mw *core.Middleware) error {
	sys := p.Sys
	rel := sys.Clocks[p.node()].Read(sys.K.Now()) - sys.Cfg.Epoch
	next := int64(1)
	if rel > 0 {
		next = int64(rel/sys.Cfg.Calendar.Round) + 1
	}
	return p.start(mw, p.Slot.NextActive(next), p.gen+1)
}

func (p *RoundPub) start(mw *core.Middleware, r int64, gen int) error {
	ch, err := Announce(mw, core.HRT, binding.Subject(p.Slot.Subject), p.Attrs, nil)
	if err != nil {
		return err
	}
	p.ch, p.gen = ch, gen
	p.loop(r, gen)
	return nil
}

func (p *RoundPub) node() int { return int(p.Slot.Publisher) }

func (p *RoundPub) loop(r int64, g int) {
	if p.Rounds > 0 && r >= p.Rounds {
		return
	}
	sys := p.Sys
	local := sys.Cfg.Epoch + sim.Time(r)*sys.Cfg.Calendar.Round + p.At
	at := sys.Clocks[p.node()].WhenLocal(sys.K.Now(), local)
	if at >= p.End {
		return
	}
	sys.K.At(at, func() {
		if (p.Lifecycle != nil && p.Lifecycle.Down(p.node())) || p.gen != g {
			return
		}
		_ = p.ch.Publish(core.Event{Subject: binding.Subject(p.Slot.Subject), Payload: p.Payload(r)})
		p.loop(p.Slot.NextActive(r+1), g)
	})
}

// SRTPub is an SRT publish loop on station Node: first at the instant
// given to Start, then Gap after each publish (exponential with mean Gap
// when Poisson), until End. Deadline and Expiration (0: none) are offsets
// from the publisher's local time, which Payload also receives. It reads
// Ch at each publish, so a restart that re-announces and sets Ch
// redirects the loop; with Lifecycle set it is silent while its node is
// down. Sent and Accepted count its publications and those the middleware
// took.
type SRTPub struct {
	Sys                  *core.System
	Node                 int
	Subject              binding.Subject
	Ch                   core.Channel
	Gap                  sim.Duration
	Poisson              bool
	Deadline, Expiration sim.Duration
	End                  sim.Time
	Payload              func(local sim.Time) []byte
	Lifecycle            *core.Lifecycle

	Sent, Accepted int
}

// Start schedules the first publish at at.
func (f *SRTPub) Start(at sim.Time) *SRTPub {
	sys := f.Sys
	var loop func()
	loop = func() {
		if sys.K.Now() >= f.End {
			return
		}
		if f.Lifecycle == nil || !f.Lifecycle.Down(f.Node) {
			now := sys.Node(f.Node).MW.LocalTime()
			var attrs core.EventAttrs
			if f.Deadline > 0 {
				attrs.Deadline = now + f.Deadline
			}
			if f.Expiration > 0 {
				attrs.Expiration = now + f.Expiration
			}
			if f.Ch.Publish(core.Event{Subject: f.Subject, Payload: f.Payload(now), Attrs: attrs}) == nil {
				f.Accepted++
			}
			f.Sent++
		}
		d := f.Gap
		if f.Poisson {
			d = sys.K.RNG().ExpDuration(d)
		}
		sys.K.After(d, loop)
	}
	sys.K.At(at, loop)
	return f
}
