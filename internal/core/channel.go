package core

import (
	"fmt"
	"strings"

	"canec/internal/binding"
)

// Channel is the paper's announce / publish / subscribe triple (Fig. 1/2)
// with the class as an attribute of the channel rather than of the call
// site: the methods *HRTEC, *SRTEC and *NRTEC share. Class-generic code —
// gateways, control loops, scenario wiring — holds a Channel; code that
// needs a class-specific extra (SRTEC.Pending, NRTEC.QueuedChains,
// CancelPublication) keeps the concrete type.
type Channel interface {
	Announce(attrs ChannelAttrs, exc ExceptionHandler) error
	Publish(ev Event) error
	Subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) error
	CancelSubscription()
	GetEvent() (Event, DeliveryInfo, bool)
}

// Channel returns the channel of the given class for a subject on this
// node: the class-generic form of HRTEC, SRTEC and NRTEC, and the one
// class → handle switch.
func (mw *Middleware) Channel(class Class, subject binding.Subject) (Channel, error) {
	if class < HRT || class > NRT {
		return nil, fmt.Errorf("core: unknown channel class %d", int(class))
	}
	ch, err := mw.channel(subject, class)
	if err != nil {
		return nil, err
	}
	switch class {
	case HRT:
		return &HRTEC{ch: ch}, nil
	case SRT:
		return &SRTEC{ch: ch}, nil
	}
	return &NRTEC{ch: ch}, nil
}

// ParseClass is the inverse of Class.String, case-insensitive.
func ParseClass(s string) (Class, error) {
	for _, c := range []Class{HRT, SRT, NRT} {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: unknown channel class %q (want hrt|srt|nrt)", s)
}
