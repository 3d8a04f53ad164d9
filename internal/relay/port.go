package relay

import (
	"time"

	"canec/internal/gateway"
	"canec/internal/sim"
)

// Port adapts a relay Link to gateway.Remote, bridging the two worlds
// the federation straddles: the simulation kernel (single-threaded,
// virtual time) and the network goroutines (wall clock). Outbound
// events are priced from virtual budget into a wall deadline using the
// pacer's ratio; inbound events are re-injected into kernel context via
// sim.Paced.Inject, so the receiving RemoteBridge runs under the
// kernel's single-toucher discipline.
type Port struct {
	paced *sim.Paced
	link  Link
	recv  func(gateway.RemoteEvent)
}

var _ gateway.Remote = (*Port)(nil)

// NewPort wires a Link into a paced kernel.
func NewPort(p *sim.Paced, l Link) *Port {
	port := &Port{paced: p, link: l}
	l.OnFrame(func(re gateway.RemoteEvent) {
		p.Inject(func() {
			if port.recv != nil {
				port.recv(re)
			}
		})
	})
	return port
}

// Send implements gateway.Remote (kernel context): the event's virtual
// relay budget becomes a wall-clock egress deadline at the configured
// pacing ratio.
func (po *Port) Send(re gateway.RemoteEvent) error {
	var deadline time.Time
	if re.Budget > 0 {
		wall := time.Duration(float64(re.Budget) / po.paced.Ratio())
		deadline = time.Now().Add(wall)
	}
	return po.link.Send(re, deadline)
}

// SetReceiver implements gateway.Remote.
func (po *Port) SetReceiver(fn func(gateway.RemoteEvent)) { po.recv = fn }
