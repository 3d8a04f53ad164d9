package relay

import (
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/sim"
)

// ObserveTrace adapts a relay endpoint's wall-clock trace stream into
// the kernel-side observability plane. Relay events (queue sheds, link
// flaps, redials) originate on network goroutines; the adapter copies
// what it needs and re-injects through the pacer so the Observer — and
// through it the SLO engine, which counts relay SRT drops against the
// deadline-miss budget — is only ever touched in kernel context.
//
// node is the gateway station hosting the link's bridge. next, when
// non-nil, is chained first (e.g. the daemon's -v stderr logger).
func ObserveTrace(p *sim.Paced, o *obs.Observer, node int, next func(Event)) func(Event) {
	return func(e Event) {
		if next != nil {
			next(e)
		}
		if o == nil || p == nil {
			return
		}
		// Copy the frame before crossing goroutines: the caller's
		// pointer may reference a loop-local value.
		var fr *gateway.RemoteEvent
		if e.Frame != nil {
			c := *e.Frame
			fr = &c
		}
		kind, detail := e.Kind, e.Detail
		p.Inject(func() {
			now := p.Kernel().Now()
			switch kind {
			case "up":
				o.Emit(0, obs.StageRelayUp, 0, node, 0, now, obs.Text("peer "+e.Peer))
			case "down":
				o.Emit(0, obs.StageRelayDown, 0, node, 0, now, obs.Text("peer "+e.Peer+": "+detail))
			case "redial":
				o.Emit(0, obs.StageRelayRedial, 0, node, 0, now, obs.Text(detail))
			case "drop":
				if fr != nil {
					o.Emit(fr.TraceID, obs.StageRelayDrop, fr.Class.Obs(),
						node, uint64(fr.Subject), now, obs.Text(detail))
				}
			case "late":
				if fr != nil {
					o.Emit(fr.TraceID, obs.StageRelayLate, fr.Class.Obs(),
						node, uint64(fr.Subject), now, obs.Text(detail))
				}
			}
		})
	}
}
