// canecstat polls the admin endpoints of every canecd in a federation
// and renders one fleet table: per-segment health, SLO burn state,
// relay queue depths, uplink liveness, trace-continuity status and the
// kernel profiler's live performance counters (events/s, event-heap
// high-water, allocations per delivered frame).
//
//	canecstat -once 127.0.0.1:9441 127.0.0.1:9442
//	canecstat -interval 2s host-a:9441 host-b:9441
//
// Exit code (with -once): 0 all segments healthy, 1 at least one SLO
// breach, 2 at least one target unreachable or (with -validate-metrics)
// serving a malformed exposition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/obs/causal"
)

func main() { os.Exit(run()) }

func die(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "canecstat: "+format+"\n", args...)
	return 2
}

// target is one daemon's polled state for a table row.
type target struct {
	addr string

	err       error
	health    admin.Health
	slo       admin.SLOView
	relay     []admin.RelayRow
	profile   admin.ProfileView
	admission admin.AdmissionView
	control   admin.ControlView
	why       admin.WhyView
	validated bool
	promErr   error
}

func run() int {
	var (
		once     = flag.Bool("once", false, "poll once, print the table, exit with fleet status")
		interval = flag.Duration("interval", 2*time.Second, "poll period when watching")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
		validate = flag.Bool("validate-metrics", false, "fetch /metrics from every target and strictly validate the Prometheus text exposition")
	)
	flag.Parse()
	addrs := flag.Args()
	if len(addrs) == 0 {
		return die("usage: canecstat [-once] [-interval d] [-validate-metrics] host:port...")
	}
	client := &http.Client{Timeout: *timeout}
	for {
		targets := poll(client, addrs, *validate)
		render(os.Stdout, targets)
		if *once {
			return fleetStatus(targets)
		}
		time.Sleep(*interval)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// /healthz answers 503 in breach with the same JSON body; any other
	// non-2xx/503 status is a real error.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

func poll(client *http.Client, addrs []string, validate bool) []*target {
	out := make([]*target, len(addrs))
	for i, addr := range addrs {
		tg := &target{addr: addr}
		out[i] = tg
		base := "http://" + addr
		// The plane and this poller ship together: any failed fetch
		// marks the target unreachable.
		for _, ep := range []struct {
			path string
			v    any
		}{
			{"/healthz", &tg.health}, {"/slo", &tg.slo}, {"/relay", &tg.relay},
			{"/profile", &tg.profile}, {"/admission", &tg.admission},
			{"/control", &tg.control}, {"/why", &tg.why},
		} {
			if tg.err = getJSON(client, base+ep.path, ep.v); tg.err != nil {
				break
			}
		}
		if tg.err == nil && validate {
			tg.validated = true
			tg.promErr = validateMetrics(client, base+"/metrics")
		}
	}
	return out
}

func findObjective(tg *target, name string) (short, long float64, breached, ok bool) {
	for _, ob := range tg.slo.Objectives {
		if ob.Name == name {
			return ob.Short, ob.Long, ob.Breached, true
		}
	}
	return 0, 0, false, false
}

// traceStatus checks fleet-wide trace continuity: every segment must
// run a distinct, nonzero trace base, or cross-segment trace IDs
// collide and post-mortem merges lie.
func traceStatus(targets []*target) map[*target]string {
	seen := map[uint64][]*target{}
	for _, tg := range targets {
		if tg.err == nil {
			seen[tg.health.TraceBase] = append(seen[tg.health.TraceBase], tg)
		}
	}
	out := map[*target]string{}
	for base, tgs := range seen {
		st := fmt.Sprintf("base %#x", base)
		switch {
		case base == 0:
			st = "NO BASE"
		case len(tgs) > 1:
			st = fmt.Sprintf("DUP %#x", base)
		}
		for _, tg := range tgs {
			out[tg] = st
		}
	}
	return out
}

func render(w io.Writer, targets []*target) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SEGMENT\tADDR\tHEALTH\tERRST\tSRT MISS (s/l)\tADMIT\tQOC\tTOPCAUSE\tBREACHED\tLINKS\tQ(H/S/N)\tDROPS\tEV/S\tHEAP HW\tALLOC/FR\tTRACE\tMETRICS")
	traces := traceStatus(targets)
	for _, tg := range targets {
		if tg.err != nil {
			fmt.Fprintf(tw, "?\t%s\tUNREACHABLE\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t%v\n", tg.addr, tg.err)
			continue
		}
		var breached []string
		for _, ob := range tg.slo.Objectives {
			if ob.Breached {
				breached = append(breached, ob.Name)
			}
		}
		breachCol := "-"
		if len(breached) > 0 {
			breachCol = strings.Join(breached, ",")
		}
		missCol := "-"
		if s, l, _, ok := findObjective(tg, "srt-miss-rate"); ok {
			missCol = fmt.Sprintf("%.3f/%.3f", s, l)
		}
		var h, sq, n int
		var drops uint64
		up := 0
		for _, r := range tg.relay {
			h += r.DepthHRT
			sq += r.DepthSRT
			n += r.DepthNRT
			drops += r.Dropped
			if r.Connected {
				up++
			}
		}
		// Admission summary: admitted/rejected/shed decision totals for
		// segments running the probabilistic admission controller.
		admitCol := "-"
		if tg.admission.Enabled {
			admitCol = fmt.Sprintf("%d/%d/%d", tg.admission.AdmittedTotal,
				tg.admission.RejectedTotal, tg.admission.ShedTotal)
		}
		// Quality-of-control summary for segments running closed-loop
		// workloads: settled/total loops and the summed cost burn rate.
		qocCol := "-"
		if tg.control.Enabled && len(tg.control.Loops) > 0 {
			settled := 0
			var rate float64
			for _, l := range tg.control.Loops {
				if l.Settled {
					settled++
				}
				rate += l.CostPerSec
			}
			qocCol = fmt.Sprintf("%d/%d %.2f/s", settled, len(tg.control.Loops), rate)
		}
		prof := tg.profile.Profile
		evCol := fmt.Sprintf("%.0f", prof.EventsPerSec)
		heapCol := strconv.Itoa(prof.HeapHighWater)
		allocCol := fmt.Sprintf("%.1f", prof.AllocsPerDelivered)
		metricsCol := "-"
		if tg.validated {
			metricsCol = "ok"
			if tg.promErr != nil {
				metricsCol = "INVALID: " + tg.promErr.Error()
			}
		}
		// Fault-confinement summary: controllers currently error-passive /
		// bus-off, plus the segment's cumulative bus-off entries.
		errstCol := "ok"
		if tg.health.ErrorPassive > 0 || tg.health.BusOff > 0 || tg.health.BusOffTotal > 0 {
			errstCol = fmt.Sprintf("%dp/%db/%dt", tg.health.ErrorPassive, tg.health.BusOff, tg.health.BusOffTotal)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d/%d\t%d/%d/%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			tg.health.Segment, tg.addr, strings.ToUpper(tg.health.Status), errstCol,
			missCol, admitCol, qocCol, topCauseCol(tg.why), breachCol, up, len(tg.relay), h, sq, n, drops,
			evCol, heapCol, allocCol, traces[tg], metricsCol)
	}
	tw.Flush()
}

// topCauseCol folds a /why snapshot into the TOPCAUSE cell: the cause
// topping the most late/dropped chains across classes (ties broken by
// attributed debit, then taxonomy order), with the incident count.
func topCauseCol(view admin.WhyView) string {
	counts := map[causal.Cause]uint64{}
	debits := map[causal.Cause]int64{}
	for _, cp := range view.Classes {
		for _, cs := range cp.Causes {
			counts[cs.Cause] += cs.Late
			debits[cs.Cause] += int64(cs.DebitNS)
		}
	}
	best := causal.CauseNone
	var bestN uint64
	for _, cause := range causal.Causes() {
		n := counts[cause]
		if n == 0 {
			continue
		}
		if n > bestN || (n == bestN && debits[cause] > debits[best]) {
			best, bestN = cause, n
		}
	}
	if bestN == 0 {
		return "none"
	}
	return fmt.Sprintf("%s×%d", best, bestN)
}

// fleetStatus folds the poll into the -once exit code.
func fleetStatus(targets []*target) int {
	code := 0
	for _, tg := range targets {
		switch {
		case tg.err != nil:
			fmt.Fprintf(os.Stderr, "canecstat: %s: %v\n", tg.addr, tg.err)
			return 2
		case tg.promErr != nil:
			fmt.Fprintf(os.Stderr, "canecstat: %s: invalid metrics: %v\n", tg.addr, tg.promErr)
			return 2
		case tg.health.Breached:
			code = 1
		}
	}
	return code
}

// validateMetrics fetches one /metrics exposition and validates it strictly.
func validateMetrics(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return obs.ValidateExposition(resp.Body)
}
