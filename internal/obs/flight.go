package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FlightRecorder continuously retains the last perNode stage records of
// every station in bounded per-node rings, independent of the unbounded
// Tracer — cheap enough to leave on in a long-running daemon. On demand
// (an SLO breach, a chaos invariant failure, an operator request) it
// dumps a post-mortem: the merged ring contents as JSONL plus a Chrome
// trace_event file, named postmortem-<seq>-<reason>.{jsonl,trace.json}.
//
// Like the Tracer it is driven from simulation-kernel context and needs
// no locking; reads from other goroutines must go through the kernel
// (sim.Paced.Call).
type FlightRecorder struct {
	perNode int
	dir     string

	rings []flightRing // indexed by node+1: system records (node -1) at 0
	seq   uint64       // total records ever added (global order stamp)

	dumpSeq int
	dumps   []string
}

// flightRing is one station's ring. Its slots are allocated once, at
// perNode capacity, on the station's first record.
type flightRing struct {
	slots []flightSlot // len <= perNode
	next  int          // slot the next record overwrites once full
}

// flightSlot is one retained record and its global order stamp.
type flightSlot struct {
	r   Record
	seq uint64
}

// newFlightRecorder builds a recorder retaining perNode records per
// station. dir is the post-mortem output directory ("" = working
// directory).
func newFlightRecorder(perNode int, dir string) *FlightRecorder {
	if perNode < 1 {
		perNode = 1
	}
	return &FlightRecorder{perNode: perNode, dir: dir}
}

// Add retains one record, evicting the node's oldest when its ring is
// full. Records with Node < 0 (system records: SLO breaches, unknown
// stations) share one ring under node -1.
func (f *FlightRecorder) Add(r Record) {
	if f == nil {
		return
	}
	i := 0
	if r.Node >= 0 {
		i = int(r.Node) + 1
	}
	if i >= len(f.rings) {
		f.rings = append(f.rings, make([]flightRing, i+1-len(f.rings))...)
	}
	ring := &f.rings[i]
	f.seq++
	if len(ring.slots) < f.perNode {
		if ring.slots == nil {
			ring.slots = make([]flightSlot, 0, f.perNode)
		}
		ring.slots = append(ring.slots, flightSlot{r, f.seq})
		return
	}
	ring.slots[ring.next] = flightSlot{r, f.seq}
	if ring.next++; ring.next == f.perNode {
		ring.next = 0
	}
}

// Len returns the number of currently retained records across all rings.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, ring := range f.rings {
		n += len(ring.slots)
	}
	return n
}

// PerNode returns the per-station retention bound.
func (f *FlightRecorder) PerNode() int {
	if f == nil {
		return 0
	}
	return f.perNode
}

// Snapshot returns the retained records of all nodes merged back into
// emission order.
func (f *FlightRecorder) Snapshot() []Record {
	if f == nil {
		return nil
	}
	all := make([]flightSlot, 0, f.Len())
	for _, ring := range f.rings {
		all = append(all, ring.slots...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Record, len(all))
	for i, s := range all {
		out[i] = s.r
	}
	return out
}

// sanitizeReason maps an arbitrary dump reason onto a filename-safe
// slug.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + 'a' - 'A'
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// Dump writes a post-mortem pair (JSONL + Chrome trace_event) of the
// current ring contents and returns the two paths. Dumps are numbered,
// so repeated breaches never overwrite earlier evidence.
func (f *FlightRecorder) Dump(reason string) ([]string, error) {
	if f == nil {
		return nil, nil
	}
	recs := f.Snapshot()
	f.dumpSeq++
	base := fmt.Sprintf("postmortem-%03d-%s", f.dumpSeq, sanitizeReason(reason))
	jsonlPath := filepath.Join(f.dir, base+".jsonl")
	tracePath := filepath.Join(f.dir, base+".trace.json")
	if f.dir != "" {
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
	}
	jf, err := os.Create(jsonlPath)
	if err != nil {
		return nil, err
	}
	err = writeVersionedJSONL(jf, recs)
	if cerr := jf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	err = WriteChromeTrace(tf, recs, max(len(f.rings)-1, 0))
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	paths := []string{jsonlPath, tracePath}
	f.dumps = append(f.dumps, paths...)
	return paths, nil
}

// Dumps lists every post-mortem file written so far, in order.
func (f *FlightRecorder) Dumps() []string {
	if f == nil {
		return nil
	}
	return append([]string(nil), f.dumps...)
}
