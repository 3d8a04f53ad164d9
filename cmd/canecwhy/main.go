// canecwhy ingests trace JSONL — a canecsim -export stage trace or a
// flight-recorder post-mortem dump — and answers "why was it late":
// it replays the stream through the causal lateness engine and prints
// ranked root-cause tables with per-chain critical paths.
//
// Example:
//
//	canecwhy postmortem-001-slo-srt-miss.jsonl
//	canecwhy -late-over SRT=2ms -chains 10 trace.jsonl
//	canecwhy -csv *.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/sim"
	"canec/internal/stats"
)

func main() {
	var (
		lateOver = flag.String("late-over", "",
			"per-class lateness bounds, e.g. HRT=1ms,SRT=5ms (unset: only drops count as incidents)")
		chains = flag.Int("chains", 5, "worst incident chains to print per file (0 = none)")
		csv    = flag.Bool("csv", false, "emit tables as CSV")
		topN   = flag.Int("top", 3, "causes in the summary line")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "canecwhy: no trace files (usage: canecwhy [flags] dump.jsonl...)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	bounds, err := parseLateOver(*lateOver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canecwhy:", err)
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		if err := run(path, bounds, *chains, *csv, *topN); err != nil {
			fmt.Fprintln(os.Stderr, "canecwhy:", err)
			status = 1
		}
	}
	os.Exit(status)
}

// parseLateOver parses "HRT=1ms,SRT=5ms" into per-class bounds.
func parseLateOver(s string) (map[string]sim.Duration, error) {
	return causal.ParseLateOver(s)
}

func run(path string, bounds map[string]sim.Duration, chains int, csv bool, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	info, err := obs.ReadJSONLInfo(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	a := causal.Analyze(info.Records, causal.Config{LateOver: bounds})
	schema := info.Schema
	if schema == "" {
		schema = "pre-versioning"
	}
	fmt.Printf("%s: %d records (%s), %d chains\n", path, len(info.Records), schema, a.Snapshot().Chains)
	if sum := a.BreachSummary(0, topN); sum != "" {
		fmt.Println("  " + sum)
	} else {
		fmt.Println("  no late or dropped chains")
	}
	fmt.Println()

	snap := a.Snapshot()
	prof := &stats.Table{
		Title:   "root causes by class",
		Headers: []string{"class", "chains", "late", "dropped", "top cause", "cause", "debit", "share"},
	}
	for _, cp := range snap.Classes {
		for i, cs := range cp.Causes {
			class, chainsCol, late, dropped, top := "", "", "", "", ""
			if i == 0 {
				class, top = cp.Class, string(cp.Top)
				chainsCol = fmt.Sprintf("%d", cp.Chains)
				late = fmt.Sprintf("%d", cp.Late)
				dropped = fmt.Sprintf("%d", cp.Dropped)
			}
			prof.Add(class, chainsCol, late, dropped, top,
				string(cs.Cause), causal.FormatDur(cs.DebitNS), stats.Pct(cs.Share))
		}
	}
	emit(prof, csv)

	if chains > 0 {
		worst := append([]causal.Chain(nil), a.Chains()...)
		sort.SliceStable(worst, func(i, j int) bool {
			wi, wj := worst[i].Late || worst[i].Outcome != "delivered",
				worst[j].Late || worst[j].Outcome != "delivered"
			if wi != wj {
				return wi
			}
			return worst[i].Latency > worst[j].Latency
		})
		tbl := &stats.Table{
			Title:   "worst chains",
			Headers: []string{"id", "class", "subject", "outcome", "latency", "top cause", "critical path"},
		}
		n := 0
		for _, ch := range worst {
			if !ch.Late && ch.Outcome == "delivered" {
				break
			}
			if n >= chains {
				break
			}
			subject := ""
			if ch.Subject != 0 {
				subject = fmt.Sprintf("0x%x", ch.Subject)
			}
			tbl.Add(ch.ID, ch.Class, subject, ch.Outcome,
				causal.FormatDur(ch.Latency), string(ch.Top),
				causal.FormatSegments(ch.Segments))
			n++
		}
		if n > 0 {
			emit(tbl, csv)
		}
	}
	return nil
}

func emit(t *stats.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}
