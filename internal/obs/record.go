package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"canec/internal/sim"
)

// Record is one timestamped stage of one event's life cycle. It holds no
// pointer: stage, class and band are small integers and the detail is a
// packed (kind, a, b) value, all named only at export, so the tracer and
// flight-recorder stores are plain memory the garbage collector does not
// scan. Fields are ordered for size; MarshalJSON fixes the key order.
type Record struct {
	// ID is the trace identifier assigned at publish; 0 marks system
	// frames (clock sync, configuration) and untraced traffic.
	ID uint64 `json:"id,omitempty"`
	// At is the kernel (global virtual) time in nanoseconds.
	At sim.Time `json:"at"`
	// Subject is the event channel's subject when known.
	Subject uint64 `json:"subject,omitempty"`
	// Detail carries a short annotation, rendered at export.
	Detail Detail `json:"detail,omitempty"`
	// Node is the station index the stage happened on (the receiver for
	// rx/delivered stages), or -1 when unknown.
	Node int32 `json:"node"`
	// Prio is the frame priority for bus-level stages, -1 otherwise.
	Prio int16 `json:"prio,omitempty"`
	// Etag is the 14-bit wire event tag for bus-level stages.
	Etag uint16 `json:"etag,omitempty"`
	// Attempt is the transmission attempt for bus-level stages.
	Attempt uint16 `json:"attempt,omitempty"`
	Stage   Stage  `json:"stage"`
	// Class is the channel class (HRT/SRT/NRT) when known.
	Class Class `json:"class,omitempty"`
	// Band is the priority band for bus-level stages.
	Band Band `json:"band,omitempty"`
}

// MarshalJSON writes the record as one JSON object with the trace
// format's key order (id, stage, at, node, class, subject, etag, prio,
// band, attempt, detail), leaving out zero-valued optional keys.
func (r Record) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

func (r Record) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if r.ID != 0 {
		b = append(strconv.AppendUint(append(b, `"id":`...), r.ID, 10), ',')
	}
	b = appendJSONString(append(b, `"stage":`...), r.Stage.String())
	b = strconv.AppendInt(append(b, `,"at":`...), int64(r.At), 10)
	b = strconv.AppendInt(append(b, `,"node":`...), int64(r.Node), 10)
	if r.Class != 0 {
		b = appendJSONString(append(b, `,"class":`...), r.Class.String())
	}
	if r.Subject != 0 {
		b = strconv.AppendUint(append(b, `,"subject":`...), r.Subject, 10)
	}
	if r.Etag != 0 {
		b = strconv.AppendUint(append(b, `,"etag":`...), uint64(r.Etag), 10)
	}
	if r.Prio != 0 {
		b = strconv.AppendInt(append(b, `,"prio":`...), int64(r.Prio), 10)
	}
	if r.Band != 0 {
		b = appendJSONString(append(b, `,"band":`...), r.Band.String())
	}
	if r.Attempt != 0 {
		b = strconv.AppendUint(append(b, `,"attempt":`...), uint64(r.Attempt), 10)
	}
	if r.Detail != 0 {
		b = appendJSONString(append(b, `,"detail":`...), r.Detail.String())
	}
	return append(b, '}')
}

// appendJSONString appends s as encoding/json writes it (HTML-escaped).
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// names is the export side of a small enum: the name of each value.
type names[T ~uint8] []string

func (n names[T]) name(v T) string {
	if int(v) < len(n) {
		return n[v]
	}
	return "?"
}

func (n names[T]) parse(text []byte, what string) (T, error) {
	for i, s := range n {
		if s == string(text) {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown %s %q", what, text)
}

// Class is a channel class. The zero value is "no class" and is left out
// of the JSONL.
type Class uint8

// The channel classes; core maps its own class type onto these.
const (
	ClassHRT Class = iota + 1
	ClassSRT
	ClassNRT
)

const numClasses = ClassNRT + 1

var classNames = names[Class]{"", "HRT", "SRT", "NRT"}

func (c Class) String() string { return classNames.name(c) }

// MarshalText names the class.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText reads a class name; an unknown name is an error.
func (c *Class) UnmarshalText(text []byte) (err error) {
	*c, err = classNames.parse(text, "class")
	return err
}

// Band is a priority band of the global layout (see BandMap). The zero
// value is "no band" and is left out of the JSONL.
type Band uint8

// The bands, in exposition and Chrome-thread order.
const (
	BandHRT Band = iota + 1
	BandSync
	BandSRT
	BandNRT
	BandOther
)

const numBands = BandOther + 1

var bandNames = names[Band]{"", "hrt", "sync", "srt", "nrt", "other"}

func (b Band) String() string { return bandNames.name(b) }

// MarshalText names the band.
func (b Band) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText reads a band name; an unknown name is an error.
func (b *Band) UnmarshalText(text []byte) (err error) {
	*b, err = bandNames.parse(text, "band")
	return err
}

func (s Stage) String() string { return stageNames.name(s) }

// MarshalText names the stage.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a stage name. A name this build does not know reads
// as StageUnknown, or as the meta stage when it begins with "_", so dumps
// of newer builds still load.
func (s *Stage) UnmarshalText(text []byte) (err error) {
	if *s, err = stageNames.parse(text, "stage"); err != nil {
		*s = StageUnknown
		if len(text) > 0 && text[0] == '_' {
			*s = StageMeta
		}
	}
	return nil
}

// Detail is a record's annotation as a packed (kind, a, b): the kind in
// bits 0–7, an unsigned a in bits 8–31 and a signed b in bits 32–63. It is
// rendered only at export, so emitting one formats nothing. Free text
// that fits no kind goes through one process-wide deduplicated text table
// (Text). The zero Detail is empty and left out of the JSONL.
type Detail uint64

type detailKind uint8

const (
	detailNone      detailKind = iota
	detailFixed                // fixedDetails[a-1]
	detailText                 // the text table's entry a
	detailPrio                 // "prio a"
	detailPromotion            // "prio a->b"
	detailFragments            // "a fragment(s)"
	detailErrors               // "tec=a rec=b"
	detailMissed               // "publisher a round b"
	detailHop                  // "hop a budget b" (b in µs)
	detailFrom                 // "from <text a>>8> hop a&0xff budget b" (b in µs)
)

// detailFormats renders the typed kinds taking plain integers; parseDetail
// scans them back.
var detailFormats = [...]string{detailPrio: "prio %d", detailPromotion: "prio %d->%d",
	detailFragments: "%d fragment(s)", detailErrors: "tec=%d rec=%d",
	detailMissed: "publisher %d round %d"}

// The fixed details: drop and shed reasons and the other constant
// annotations of the middleware and the gateways.
const (
	DetailRelayed Detail = Detail(detailFixed) | Detail(iota+1)<<8
	DetailSlotQueue
	DetailLate
	DetailQueueOverflow
	DetailTxAbandoned
	DetailNodeCrash
	DetailRejectedAtPublish
	DetailErrorPassive
	DetailBudgetExhausted
	DetailHopLimit
	DetailLoop
	DetailTimeMaster
	DetailBindingAgent
)

// fixedDetails names the fixed details in declaration order.
var fixedDetails = [...]string{"relayed", "slot queue", "late", "queue_overflow",
	"tx_abandoned", "node_crash", "rejected at publish", "error_passive",
	"budget exhausted", "hop limit", "loop: returned to origin segment",
	"time master", "binding agent"}

func (d Detail) kind() detailKind { return detailKind(d) }
func (d Detail) a() int64         { return int64(d>>8) & 0xffffff }
func (d Detail) b() int64         { return int64(int32(d >> 32)) }

// packDetail packs a typed detail, or interns its rendering when a or b
// does not fit the packed form.
func packDetail(k detailKind, a, b int64) Detail {
	if a < 0 || a >= 1<<24 || int64(int32(b)) != b {
		return Text(render(k, a, b))
	}
	return Detail(k) | Detail(a)<<8 | Detail(uint32(b))<<32
}

// PrioDetail is an enqueued SRT record's detail: "prio p".
func PrioDetail(p int) Detail { return packDetail(detailPrio, int64(p), 0) }

// Promotion is a promoted SRT record's detail: "prio from->to".
func Promotion(from, to int) Detail { return packDetail(detailPromotion, int64(from), int64(to)) }

// Fragments is an enqueued NRT record's detail: "n fragment(s)".
func Fragments(n int) Detail { return packDetail(detailFragments, int64(n), 0) }

// MissedRound is a slot_missed record's detail: "publisher p round r".
func MissedRound(publisher int, round int64) Detail {
	return packDetail(detailMissed, int64(publisher), round)
}

// errorsDetail is a fault-confinement record's detail: "tec=t rec=r".
func errorsDetail(tec, rec int) Detail { return packDetail(detailErrors, int64(tec), int64(rec)) }

// RelayHop is a relay_tx record's detail: "hop n budget b".
func RelayHop(hops int, budget sim.Duration) Detail {
	return packDetail(detailHop, int64(hops), budget.Micros())
}

// RelayFrom is a relay_rx record's detail: "from seg hop n budget b".
func RelayFrom(seg string, hops int, budget sim.Duration) Detail {
	if t := Text(seg); t != 0 && t.a() < 1<<16 && hops >= 0 && hops <= 0xff {
		return packDetail(detailFrom, t.a()<<8|int64(hops), budget.Micros())
	}
	return Text(fmt.Sprintf("from %s hop %d budget %v", seg, hops, budget))
}

func (d Detail) String() string {
	switch k := d.kind(); k {
	case detailNone:
		return ""
	case detailFixed:
		if i := d.a() - 1; i >= 0 && i < int64(len(fixedDetails)) {
			return fixedDetails[i]
		}
		return "?"
	case detailText:
		return texts.at(d.a())
	default:
		return render(k, d.a(), d.b())
	}
}

// render formats a typed kind from its (a, b).
func render(k detailKind, a, b int64) string {
	switch k {
	case detailHop:
		return fmt.Sprintf("hop %d budget %v", a, sim.Duration(b)*sim.Microsecond)
	case detailFrom:
		return fmt.Sprintf("from %s hop %d budget %v", texts.at(a>>8), a&0xff, sim.Duration(b)*sim.Microsecond)
	case detailPrio, detailFragments:
		return fmt.Sprintf(detailFormats[k], a)
	case detailPromotion, detailErrors, detailMissed:
		return fmt.Sprintf(detailFormats[k], a, b)
	}
	return "?"
}

// MarshalText renders the detail.
func (d Detail) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText reads a detail back into its typed kind when the text is
// exactly what that kind renders, and through the text table otherwise.
func (d *Detail) UnmarshalText(text []byte) (err error) {
	*d, err = parseDetail(string(text))
	return err
}

func parseDetail(s string) (Detail, error) {
	for i, f := range fixedDetails {
		if s == f {
			return Detail(detailFixed) | Detail(i+1)<<8, nil
		}
	}
	var a, b, us int64
	var seg string
	scan := func(format string, args ...any) bool {
		n, err := fmt.Sscanf(s, format, args...)
		return err == nil && n == len(args)
	}
	for k := detailPrio; k <= detailMissed; k++ {
		var d Detail
		if k == detailPrio || k == detailFragments {
			if scan(detailFormats[k], &a) {
				d = packDetail(k, a, 0)
			}
		} else if scan(detailFormats[k], &a, &b) {
			d = packDetail(k, a, b)
		}
		if d != 0 && d.String() == s {
			return d, nil
		}
	}
	if scan("hop %d budget %d.%ds", &a, &b, &us) {
		if d := RelayHop(int(a), sim.Duration(b*1e6+us)*sim.Microsecond); d.String() == s {
			return d, nil
		}
	}
	if scan("from %s hop %d budget %d.%ds", &seg, &a, &b, &us) {
		if d := RelayFrom(seg, int(a), sim.Duration(b*1e6+us)*sim.Microsecond); d.String() == s {
			return d, nil
		}
	}
	return texts.intern(s)
}

// texts is the process-wide text table behind text details: each distinct
// string is stored once and named by its index. Only rare annotations
// reach it (admission verdicts, relay peers, loop names, shed values,
// breach summaries), so it stops growing once a workload's vocabulary is
// known. Index 0 is the empty string.
var texts = textTable{ids: map[string]int64{"": 0}, list: []string{""}}

type textTable struct {
	mu   sync.Mutex
	ids  map[string]int64
	list []string
}

// Text interns s and returns its detail ("" is the empty detail). The
// program's own annotations cannot fill the table's 2^24 entries; only a
// bug that interns per event could, so that panics.
func Text(s string) Detail {
	d, err := texts.intern(s)
	if err != nil {
		panic(err)
	}
	return d
}

// intern returns the text detail of s, adding s to the table if new.
func (t *textTable) intern(s string) (Detail, error) {
	if s == "" {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[s]
	if !ok {
		if len(t.list) >= 1<<24 {
			return 0, fmt.Errorf("obs: text table full at %d entries", len(t.list))
		}
		id = int64(len(t.list))
		t.ids[s] = id
		t.list = append(t.list, s)
	}
	return Detail(detailText) | Detail(id)<<8, nil
}

func (t *textTable) at(i int64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < int64(len(t.list)) {
		return t.list[i]
	}
	return "?"
}
