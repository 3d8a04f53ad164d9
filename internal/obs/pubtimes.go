package obs

import "canec/internal/sim"

// pubGeneration is the size of one generation of retained publish times.
// At most two generations are live, so an event's publish time survives
// at least pubGeneration and at most 2×pubGeneration later publishes —
// far beyond what one segment's queues can hold in flight.
const pubGeneration = 1 << 16

// pubTimes maps trace IDs to publish times in bounded memory. Several
// subscribers deliver the same ID, so an entry cannot be dropped at its
// first delivery; instead the young generation rotates to old when it
// fills and the previous old one is forgotten. A forgotten ID reads as
// untraced: no latency sample, never a wrong one.
type pubTimes struct {
	young, old map[uint64]sim.Time
}

func (p *pubTimes) put(id uint64, at sim.Time) {
	if len(p.young) >= pubGeneration {
		p.young, p.old = p.old, p.young
		clear(p.young)
	}
	if p.young == nil {
		p.young = make(map[uint64]sim.Time)
	}
	p.young[id] = at
}

func (p *pubTimes) get(id uint64) (sim.Time, bool) {
	if at, ok := p.young[id]; ok {
		return at, true
	}
	at, ok := p.old[id]
	return at, ok
}
