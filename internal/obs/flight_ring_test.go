package obs

import (
	"reflect"
	"sort"
	"testing"

	"canec/internal/sim"
)

// flightModel is the reference for FlightRecorder: per node the last
// perNode records with their emission numbers, merged by emission number
// on snapshot.
type flightModel struct {
	perNode int
	seq     uint64
	nodes   map[int32][]flightSlot
}

func (m *flightModel) add(r Record) {
	node := r.Node
	if node < 0 {
		node = -1
	}
	m.seq++
	kept := append(m.nodes[node], flightSlot{r, m.seq})
	if len(kept) > m.perNode {
		kept = kept[1:]
	}
	m.nodes[node] = kept
}

func (m *flightModel) snapshot() []Record {
	var all []flightSlot
	for _, kept := range m.nodes {
		all = append(all, kept...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Record, len(all))
	for i, s := range all {
		out[i] = s.r
	}
	return out
}

// TestFlightRecorderMatchesModel drives random record streams through the
// recorder and the model: system records under several negative nodes,
// stations first seen out of order, rings small enough to wrap many
// times. Snapshot and Len must agree after every batch.
func TestFlightRecorderMatchesModel(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 40; trial++ {
		perNode := 1 + rng.Intn(6)
		f := newFlightRecorder(perNode, t.TempDir())
		m := &flightModel{perNode: perNode, nodes: map[int32][]flightSlot{}}
		// The first stations seen are high-numbered ones, so the ring
		// table grows past nodes that appear only later.
		for _, n := range []int32{int32(5 + rng.Intn(8)), int32(rng.Intn(5)), -1} {
			r := Record{ID: uint64(n + 100), Stage: StagePublished, Node: n}
			f.Add(r)
			m.add(r)
		}
		for batch := 0; batch < 8; batch++ {
			for i := 0; i < 50; i++ {
				node := int32(rng.Intn(14)) - 2 // -2..11: -2 and -1 share a ring
				r := Record{ID: m.seq + 1, Stage: Stage(rng.Intn(5)), At: sim.Time(m.seq), Node: node}
				f.Add(r)
				m.add(r)
			}
			want := m.snapshot()
			if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d (perNode %d): snapshot\n got %+v\nwant %+v", trial, batch, perNode, got, want)
			}
			if f.Len() != len(want) {
				t.Fatalf("trial %d batch %d: Len %d, want %d", trial, batch, f.Len(), len(want))
			}
		}
	}
}

// TestFlightRingAllocatedOnce pins the rings' allocation: a station's
// first record allocates its ring at perNode capacity, and every later
// record, wrapping or not, allocates nothing and keeps that capacity.
func TestFlightRingAllocatedOnce(t *testing.T) {
	const perNode = 16
	f := newFlightRecorder(perNode, t.TempDir())
	for _, node := range []int32{3, -1} {
		f.Add(Record{Node: node})
		ring := &f.rings[node+1]
		if cap(ring.slots) != perNode {
			t.Fatalf("node %d: ring capacity %d after first record, want %d", node, cap(ring.slots), perNode)
		}
		r := Record{Stage: StageDelivered, Node: node}
		if per := testing.AllocsPerRun(3*perNode, func() { f.Add(r) }); per != 0 {
			t.Fatalf("node %d: Add allocated %.2f per record, want 0", node, per)
		}
		if len(ring.slots) != perNode || cap(ring.slots) != perNode {
			t.Fatalf("node %d: ring len %d cap %d after wrapping, want %d", node, len(ring.slots), cap(ring.slots), perNode)
		}
	}
}
