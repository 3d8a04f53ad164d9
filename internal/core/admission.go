package core

import (
	"fmt"

	"canec/internal/calendar"
	"canec/internal/obs"
	"canec/internal/prob"
	"canec/internal/sim"
)

// ReservedFromCalendar converts the HRT slot calendar into the reserved
// message streams every probabilistic admission analysis must account
// for: each slot is a periodic stream at HRT priority (it always wins
// arbitration against SRT/NRT traffic) with the slot's dimensioned
// payload and period.
func ReservedFromCalendar(cal *calendar.Calendar) []prob.Msg {
	msgs := make([]prob.Msg, 0, len(cal.Slots))
	for _, s := range cal.Slots {
		msgs = append(msgs, prob.Msg{
			Name:    fmt.Sprintf("hrt-slot-%d", s.Subject),
			Prio:    0,
			Period:  s.Period(cal.Round),
			Payload: s.Payload,
		})
	}
	return msgs
}

// AdmissionError is the typed rejection returned by Announce when the
// probabilistic admission controller refuses the channel. It carries
// everything the application needs to react: the reason, the predicted
// miss probability against the class target, and the re-admission
// backoff after which a retry may succeed.
type AdmissionError struct {
	Reason     prob.Reason
	MissProb   float64
	Target     float64
	RetryAfter sim.Duration
}

// Error implements error.
func (e *AdmissionError) Error() string {
	if e.Reason == prob.ReasonBackoff {
		return fmt.Sprintf("core: admission refused (%s, retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("core: admission refused (%s: predicted miss %.3g, target %.3g, retry after %v)",
		e.Reason, e.MissProb, e.Target, e.RetryAfter)
}

// admissionRequest consults the segment's admission controller for an
// SRT/NRT announcement. It returns nil when the channel is admitted (or
// no controller is installed) and a typed *AdmissionError otherwise.
func (mw *Middleware) admissionRequest(ch *channelState, attrs ChannelAttrs) error {
	ctl := mw.Admission
	if ctl == nil {
		return nil
	}
	req := prob.ChannelReq{
		Node:     mw.node.Index,
		Subject:  uint64(ch.subject),
		Class:    ch.class.String(),
		Prio:     attrs.Prio,
		Payload:  attrs.Payload,
		Period:   attrs.Period,
		Deadline: attrs.RelDeadline,
	}
	d := ctl.Request(req)
	now := mw.K.Now()
	if d.Admitted {
		mw.counters.AdmissionAdmitted++
		mw.Obs.AdmissionDecision(req.Class, "admitted", prob.ReasonNone.String())
		if mw.Obs.Enabled() {
			mw.Obs.Emit(0, obs.StageAdmitted, ch.class.Obs(), req.Node, req.Subject, now,
				obs.Text(fmt.Sprintf("miss %.3g target %.3g", d.MissProb, d.Target)))
		}
		return nil
	}
	mw.counters.AdmissionRejected++
	mw.Obs.AdmissionDecision(req.Class, "rejected", d.Reason.String())
	if mw.Obs.Enabled() {
		mw.Obs.Emit(0, obs.StageAdmitRejected, ch.class.Obs(), req.Node, req.Subject, now,
			obs.Text(fmt.Sprintf("%s miss %.3g target %.3g retry %v", d.Reason, d.MissProb, d.Target, d.RetryAfter)))
	}
	return &AdmissionError{Reason: d.Reason, MissProb: d.MissProb,
		Target: d.Target, RetryAfter: d.RetryAfter}
}

// admissionRelease returns a channel's bandwidth claim to the controller
// when its publication is cancelled.
func (mw *Middleware) admissionRelease(ch *channelState) {
	if mw.Admission != nil {
		mw.Admission.Release(mw.node.Index, uint64(ch.subject))
	}
}

// applyAdmissionShed withdraws a shed channel's announcement: queued
// events are aborted, further publishes fail with ErrNotAnnounced until
// the application re-announces (which re-runs admission under the armed
// backoff), and the publisher's exception handler is notified with the
// typed reason — never a silent degradation.
func (mw *Middleware) applyAdmissionShed(s prob.Shed) {
	for _, ch := range mw.channels {
		if ch == nil || uint64(ch.subject) != s.Channel.Subject || !ch.announced {
			continue
		}
		switch ch.class {
		case SRT:
			ch.abortSRT()
		case NRT:
			ch.dropNRT()
		default:
			continue // HRT channels are never admission-managed
		}
		ch.announced = false
		now := mw.K.Now()
		mw.Obs.AdmissionDecision(ch.class.String(), "shed", s.Reason.String())
		if mw.Obs.Enabled() {
			mw.Obs.Emit(0, obs.StageAdmitShed, ch.class.Obs(), mw.node.Index,
				uint64(ch.subject), now,
				obs.Text(fmt.Sprintf("%s miss %.3g target %.3g", s.Reason, s.MissProb, s.Target)))
		}
		ch.raisePub(Exception{Kind: ExcAdmissionShed, Subject: ch.subject, At: now,
			note: fmt.Sprintf("predicted miss %.3g above target %.3g under measured error rate",
				s.MissProb, s.Target)})
	}
}

// reviseAdmission recomputes the measured per-attempt error rate from
// the bus statistics and re-evaluates the admitted set, applying any
// sheds to the owning nodes. It runs on error-state transitions
// (error-passive, bus-off) and guardian isolation — the trace events
// that signal the wire no longer behaves like the planned error model.
func (s *System) reviseAdmission() {
	if s.Admission == nil {
		return
	}
	st := s.Bus.Stats()
	attempts := st.FramesOK + st.FramesError
	if attempts == 0 {
		return
	}
	rate := float64(st.FramesError) / float64(attempts)
	for _, shed := range s.Admission.SetMeasuredRate(rate) {
		if shed.Channel.Node >= 0 && shed.Channel.Node < len(s.Nodes) {
			s.Nodes[shed.Channel.Node].MW.applyAdmissionShed(shed)
		}
	}
}
