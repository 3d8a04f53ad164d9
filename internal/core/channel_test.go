package core

import (
	"errors"
	"strings"
	"testing"

	"canec/internal/binding"
)

func TestMiddlewareChannelByClass(t *testing.T) {
	mw := idealSystem(t, 2, nil).Node(0).MW
	for _, c := range []Class{HRT, SRT, NRT} {
		subj := subjTemp + binding.Subject(c)
		ch, err := mw.Channel(c, subj)
		if err != nil {
			t.Fatalf("Channel(%v): %v", c, err)
		}
		var match bool
		switch c {
		case HRT:
			_, match = ch.(*HRTEC)
		case SRT:
			_, match = ch.(*SRTEC)
		case NRT:
			_, match = ch.(*NRTEC)
		}
		if !match {
			t.Errorf("Channel(%v) returned %T", c, ch)
		}
		// Every subject has at most one channel: another class is refused,
		// with a nil interface rather than a typed nil pointer.
		other, err := mw.Channel((c+1)%3, subj)
		if !errors.Is(err, ErrClassMismatch) || other != nil {
			t.Errorf("Channel(%v) on a %v subject = %v, %v; want nil, ErrClassMismatch", (c+1)%3, c, other, err)
		}
	}
	for _, c := range []Class{-1, 3} {
		if ch, err := mw.Channel(c, 0x999); err == nil || ch != nil {
			t.Errorf("Channel(%d) = %v, %v; want an error", int(c), ch, err)
		}
	}
	if n := len(mw.Channels()); n != 3 {
		t.Errorf("%d channels after three valid and five refused opens, want 3", n)
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range []Class{HRT, SRT, NRT} {
		name := c.String()
		for _, s := range []string{name, strings.ToLower(name), name[:1] + strings.ToLower(name[1:])} {
			if got, err := ParseClass(s); err != nil || got != c {
				t.Errorf("ParseClass(%q) = %v, %v; want %v", s, got, err, c)
			}
		}
	}
	for _, s := range []string{"", "?", "best-effort", "hrt ", "srtx"} {
		if c, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) = %v, want an error", s, c)
		}
	}
}
