package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL dumps stage records one JSON object per line, in emission
// order. The format is stable: see Record.MarshalJSON.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range recs {
		line = append(recs[i].appendJSON(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceSchema tags the current trace JSONL schema. Bump the suffix when
// Record grows fields old readers must not misinterpret; ReadJSONLInfo
// ignores unknown fields, so additive growth keeps old dumps readable.
const traceSchema = "canec-trace/1"

// writeVersionedJSONL writes the schema header line followed by the
// records — the flight-recorder post-mortem format.
func writeVersionedJSONL(w io.Writer, recs []Record) error {
	header := Record{Stage: StageSchema, Node: -1, Prio: -1, Detail: Text(traceSchema)}
	if _, err := w.Write(append(header.appendJSON(nil), '\n')); err != nil {
		return err
	}
	return WriteJSONL(w, recs)
}

// JSONLInfo is the result of a tolerant trace JSONL read.
type JSONLInfo struct {
	// Schema is the header's schema tag ("" for pre-versioning dumps).
	Schema string
	// Records holds every stage record, header and meta lines stripped.
	Records []Record
}

// ReadJSONLInfo parses a trace JSONL stream (a tracer export or a
// flight-recorder post-mortem) back into records and its schema header,
// dropping schema/meta lines (stages beginning with "_"). It is
// deliberately tolerant: blank lines are skipped and unknown fields
// ignored, so dumps written by newer builds with additive Record fields
// still load.
func ReadJSONLInfo(r io.Reader) (JSONLInfo, error) {
	var info JSONLInfo
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return info, fmt.Errorf("trace jsonl line %d: %w", line, err)
		}
		switch rec.Stage {
		case StageSchema:
			if info.Schema == "" {
				info.Schema = rec.Detail.String()
			}
			continue
		case StageMeta:
			continue
		}
		info.Records = append(info.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return info, err
	}
	return info, nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// as loaded by Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"` // microseconds
	Dur  float64    `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args"`
}

// chromeArgs are an event's args, in key order. A zero field is left out,
// so the keys a wire slice writes even when zero are pointers into the
// records; a set Detail whose text is empty is still written.
type chromeArgs struct {
	Attempt *uint16 `json:"attempt,omitempty"`
	Class   Class   `json:"class,omitempty"`
	Detail  Detail  `json:"detail,omitempty"`
	ID      *uint64 `json:"id,omitempty"`
	Name    string  `json:"name,omitempty"`
	Prio    *int16  `json:"prio,omitempty"`
	Result  Stage   `json:"result,omitempty"`
	Subject string  `json:"subject,omitempty"`
}

// chromeTrace is the JSON-object flavour of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track layout: pid 0 is the bus, with one thread per priority band
// carrying a complete ("X") slice per wire occupancy; pid i+1 is node i,
// with instant ("i") events for every life-cycle stage that happened on
// that station.
const busPid = 0

// WriteChromeTrace renders stage records as Chrome trace_event JSON with
// one track per node and one per priority band. nodes is the station
// count (for track naming); records from higher node indices still render.
func WriteChromeTrace(w io.Writer, recs []Record, nodes int) error {
	events := make([]chromeEvent, 0, len(recs)+nodes+8)
	meta := func(pid, tid int, kind, name string) {
		events = append(events, chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: chromeArgs{Name: name}})
	}
	meta(busPid, 0, "process_name", "bus")
	// Band b is bus thread b; thread 0 takes records of no band.
	for b := BandHRT; b < numBands; b++ {
		meta(busPid, int(b), "thread_name", "band "+b.String())
	}
	for i := 0; i < nodes; i++ {
		meta(i+1, 0, "process_name", fmt.Sprintf("node %d", i))
		meta(i+1, 1, "thread_name", "lifecycle")
	}

	var open *Record // pending tx_start awaiting its tx_ok/tx_err
	for i := range recs {
		r := recs[i]
		switch r.Stage {
		case StageTxStart:
			open = &recs[i]
			continue
		case StageTxOK, StageTxErr:
			if open != nil {
				name := fmt.Sprintf("subject 0x%x", open.Subject)
				if open.Subject == 0 {
					name = fmt.Sprintf("etag %d", open.Etag)
				}
				events = append(events, chromeEvent{
					Name: name, Cat: "wire", Ph: "X",
					Ts:  float64(open.At) / 1e3,
					Dur: float64(r.At-open.At) / 1e3,
					Pid: busPid, Tid: int(open.Band),
					Args: chromeArgs{Attempt: &open.Attempt, ID: &open.ID, Prio: &open.Prio, Result: r.Stage},
				})
				open = nil
			}
		}
		ev := chromeEvent{
			Name: r.Stage.String(), Cat: "lifecycle", Ph: "i",
			Ts: float64(r.At) / 1e3, Pid: max(int(r.Node), -1) + 1, Tid: 1, S: "t",
			Args: chromeArgs{Class: r.Class, Detail: r.Detail, ID: &recs[i].ID},
		}
		if r.Subject != 0 {
			ev.Args.Subject = fmt.Sprintf("0x%x", r.Subject)
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
