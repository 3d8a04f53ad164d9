package relay

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
)

func item(class core.Class, id uint64, deadline time.Time) qItem {
	return qItem{
		re:           gateway.RemoteEvent{Class: class, TraceID: id},
		wallDeadline: deadline,
	}
}

func TestQueueDrainOrder(t *testing.T) {
	q := newEgressQueue(8, 8)
	now := time.Now()
	q.push(item(core.NRT, 1, time.Time{}), now)
	q.push(item(core.SRT, 2, now.Add(time.Hour)), now)
	q.push(item(core.HRT, 3, time.Time{}), now)
	var order []uint64
	for {
		it, ok, _ := q.pop(now)
		if !ok {
			break
		}
		order = append(order, it.re.TraceID)
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("drain order = %v, want [3 2 1] (HRT→SRT→NRT)", order)
	}
}

func TestQueueNRTDropsOldestFirst(t *testing.T) {
	q := newEgressQueue(8, 2)
	now := time.Now()
	var drops []uint64
	for id := uint64(1); id <= 4; id++ {
		for _, f := range q.push(item(core.NRT, id, time.Time{}), now) {
			if f.reason != "backpressure" {
				t.Fatalf("NRT drop reason = %q", f.reason)
			}
			drops = append(drops, f.item.re.TraceID)
		}
	}
	if len(drops) != 2 || drops[0] != 1 || drops[1] != 2 {
		t.Fatalf("NRT drops = %v, want oldest-first [1 2]", drops)
	}
}

func TestQueueSRTShedsExpiredBeforeDropping(t *testing.T) {
	q := newEgressQueue(2, 8)
	now := time.Now()
	// One already-expired item and one live one fill the queue.
	q.push(item(core.SRT, 1, now.Add(-time.Second)), now)
	q.push(item(core.SRT, 2, now.Add(time.Hour)), now)
	// The third push must shed the expired copy, not the live one.
	fates := q.push(item(core.SRT, 3, now.Add(time.Hour)), now)
	if len(fates) != 1 || fates[0].item.re.TraceID != 1 || fates[0].reason != "expired" {
		t.Fatalf("fates = %+v, want expired item 1 shed", fates)
	}
	// With only live items, overflow falls back to drop-oldest.
	fates = q.push(item(core.SRT, 4, now.Add(time.Hour)), now)
	if len(fates) != 1 || fates[0].item.re.TraceID != 2 || fates[0].reason != "backpressure" {
		t.Fatalf("fates = %+v, want backpressure drop of item 2", fates)
	}
}

func TestQueueSRTShedsExpiredAtPop(t *testing.T) {
	q := newEgressQueue(8, 8)
	now := time.Now()
	q.push(item(core.SRT, 1, now.Add(time.Millisecond)), now)
	q.push(item(core.SRT, 2, now.Add(time.Hour)), now)
	later := now.Add(time.Second)
	it, ok, shed := q.pop(later)
	if !ok || it.re.TraceID != 2 {
		t.Fatalf("pop = %+v ok=%v, want live item 2", it.re, ok)
	}
	if len(shed) != 1 || shed[0].item.re.TraceID != 1 || shed[0].reason != "expired" {
		t.Fatalf("shed = %+v", shed)
	}
}

func TestQueueHRTNeverDroppedOnlyLate(t *testing.T) {
	q := newEgressQueue(1, 1)
	now := time.Now()
	// Push far past any bound: HRT has no cap.
	for id := uint64(1); id <= 100; id++ {
		if fates := q.push(item(core.HRT, id, now.Add(-time.Second)), now); len(fates) != 0 {
			t.Fatalf("HRT push dropped: %+v", fates)
		}
	}
	late := 0
	for {
		it, ok, _ := q.pop(now)
		if !ok {
			break
		}
		if it.late {
			late++
		}
	}
	if late != 100 {
		t.Fatalf("late HRT count = %d, want 100 (delivered late, never dropped)", late)
	}
}

// writeCounter counts the Write calls that reach the connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(b)
}

// A backlog leaves in bursts: the writer flushes when the queue runs
// empty (or its buffer fills), not once per frame — a write per frame,
// each waking the peer's reader, is what bounded loopback throughput.
func TestWriterCoalescesBacklog(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	local := &writeCounter{Conn: a}
	const frames = 200
	var codec can.Codec
	q := newEgressQueue(0, nrtQueueCap)
	for i := 0; i < frames; i++ {
		re := gateway.RemoteEvent{Class: core.HRT, Subject: 7, Payload: []byte{byte(i)}, OriginSeg: "x"}
		wire, err := encodeFrame(&codec, re)
		if err != nil {
			t.Fatal(err)
		}
		q.push(qItem{re: re, wire: wire}, time.Now())
	}
	pc := newConn(local, Config{Segment: "a"}, q, &Counters{}, nil, nil)
	defer pc.close("test done")
	go pc.writeLoop()

	r := bufio.NewReader(b)
	for i := 0; i < frames; i++ {
		msg, err := readMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		re, err := decodeFrame(&codec, msg[1:])
		if err != nil || len(re.Payload) != 1 || re.Payload[0] != byte(i) {
			t.Fatalf("frame %d: %v %v", i, re.Payload, err)
		}
	}
	if w := local.writes.Load(); w > frames/10 {
		t.Fatalf("%d frames left in %d writes", frames, w)
	}
}
