package relay

import (
	"sync"
	"time"

	"canec/internal/core"
	"canec/internal/gateway"
)

// qItem is one encoded message waiting on a peer's egress queue.
type qItem struct {
	re   gateway.RemoteEvent
	wire []byte // encoded msgFrame, ready to write
	// wallDeadline is the wall-clock instant the event's remaining relay
	// budget runs out (zero = no budget). SRT items past it are shed;
	// HRT items past it are still sent but counted late.
	wallDeadline time.Time
	late         bool // set by pop on overdue HRT items
}

// fate describes what the queue did to an item, for the owner to count
// and trace outside the queue lock.
type fate struct {
	item   qItem
	reason string // "backpressure" | "expired"
}

// classQueue is a FIFO with O(1) amortised shift: a head index advances
// instead of memmoving the backlog (which would make draining a deep
// queue quadratic), and the dead prefix is compacted once it dominates.
type classQueue struct {
	items []qItem
	head  int
}

func (c *classQueue) size() int { return len(c.items) - c.head }

func (c *classQueue) push(it qItem) { c.items = append(c.items, it) }

func (c *classQueue) shift() qItem {
	it := c.items[c.head]
	c.items[c.head] = qItem{} // release references for GC
	c.head++
	if c.head > 64 && c.head*2 >= len(c.items) {
		n := copy(c.items, c.items[c.head:])
		for i := n; i < len(c.items); i++ {
			c.items[i] = qItem{}
		}
		c.items = c.items[:n]
		c.head = 0
	}
	return it
}

// dropExpired removes queued items past their wall deadline.
func (c *classQueue) dropExpired(now time.Time, out []fate) []fate {
	kept := c.items[c.head:c.head]
	for _, it := range c.items[c.head:] {
		if !it.wallDeadline.IsZero() && now.After(it.wallDeadline) {
			out = append(out, fate{item: it, reason: "expired"})
			continue
		}
		kept = append(kept, it)
	}
	c.items = c.items[:c.head+len(kept)]
	return out
}

// egressQueue is the class-aware per-peer send queue implementing the
// relay's backpressure policy:
//
//   - HRT: unbounded, never dropped. Items past their budget are handed
//     out marked late (the caller counts and traces them).
//   - SRT: bounded. Under pressure, deadline-expired copies are shed
//     first; if the queue is still full the oldest item is dropped.
//     Expired items are also shed at pop time.
//   - NRT: bounded, drop-oldest — the first class to give way.
//
// Drain order is strictly HRT → SRT → NRT.
type egressQueue struct {
	mu     sync.Mutex
	hrt    classQueue
	srt    classQueue
	nrt    classQueue
	capSRT int
	capNRT int
	notify chan struct{}
}

// nrtQueueCap bounds every per-peer NRT egress queue.
const nrtQueueCap = 64

func newEgressQueue(capSRT, capNRT int) *egressQueue {
	if capSRT <= 0 {
		capSRT = 256
	}
	return &egressQueue{
		capSRT: capSRT,
		capNRT: capNRT,
		notify: make(chan struct{}, 1),
	}
}

func (q *egressQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// push enqueues an item per the class policy and returns the items it
// had to discard to make room.
func (q *egressQueue) push(it qItem, now time.Time) []fate {
	q.mu.Lock()
	var out []fate
	switch classOf(it) {
	case classHRT:
		q.hrt.push(it)
	case classSRT:
		if q.srt.size() >= q.capSRT {
			out = q.srt.dropExpired(now, out)
		}
		if q.srt.size() >= q.capSRT {
			out = append(out, fate{item: q.srt.shift(), reason: "backpressure"})
		}
		q.srt.push(it)
	default:
		if q.nrt.size() >= q.capNRT {
			out = append(out, fate{item: q.nrt.shift(), reason: "backpressure"})
		}
		q.nrt.push(it)
	}
	q.mu.Unlock()
	q.wake()
	return out
}

// pop dequeues the next item to send (HRT first), shedding expired SRT
// items on the way; they are returned alongside for accounting. Overdue
// HRT items come out with late=true.
func (q *egressQueue) pop(now time.Time) (qItem, bool, []fate) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var shed []fate
	if q.hrt.size() > 0 {
		it := q.hrt.shift()
		if !it.wallDeadline.IsZero() && now.After(it.wallDeadline) {
			it.late = true
		}
		return it, true, shed
	}
	for q.srt.size() > 0 {
		it := q.srt.shift()
		if !it.wallDeadline.IsZero() && now.After(it.wallDeadline) {
			shed = append(shed, fate{item: it, reason: "expired"})
			continue
		}
		return it, true, shed
	}
	if q.nrt.size() > 0 {
		return q.nrt.shift(), true, shed
	}
	return qItem{}, false, shed
}

// depths reports the per-class queue lengths (for metrics surfaces).
func (q *egressQueue) depths() (hrt, srt, nrt int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hrt.size(), q.srt.size(), q.nrt.size()
}

type classKey int

const (
	classHRT classKey = iota
	classSRT
	classNRT
)

func classOf(it qItem) classKey {
	switch it.re.Class {
	case core.HRT:
		return classHRT
	case core.SRT:
		return classSRT
	default:
		return classNRT
	}
}
