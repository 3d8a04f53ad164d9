package canec

// Benchmark harness: one benchmark per experiment table (E1–E10, see
// DESIGN.md §4 and EXPERIMENTS.md). Each benchmark regenerates the
// corresponding evaluation table end to end — workload generation,
// simulation, measurement — and reports headline metrics via
// b.ReportMetric so regressions in either performance or *result shape*
// are visible from `go test -bench`.
//
// The micro-benchmarks for the hot substrate paths (event kernel, frame
// encoding, arbitration, end-to-end chains) live in internal/obs/perf/suite;
// BenchmarkSuite at the end runs them.

import (
	"testing"

	"canec/internal/experiments"
	"canec/internal/obs/perf/suite"
)

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		res := e.Run(uint64(i + 1))
		rows = len(res.Table.Rows)
	}
	b.ReportMetric(float64(rows), "tablerows")
}

func BenchmarkE1SlotGeometry(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2FaultTolerance(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Reclamation(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4EDFvsDM(b *testing.B)              { benchExperiment(b, "E4") }
func BenchmarkE5PrioritySlotTradeoff(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Fragmentation(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7PromotionOverhead(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8ClockSync(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9Integration(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10WCRTAnalysis(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkA1PromotionAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2DejitterAblation(b *testing.B)     { benchExperiment(b, "A2") }
func BenchmarkA3ValueShedding(b *testing.B)        { benchExperiment(b, "A3") }

// BenchmarkSuite runs the perf suite's micro-benchmarks — the kernel,
// codec and bus floors, the full publish→deliver chains and relay
// loopback throughput; every recordable case but the experiment tables
// above — as sub-benchmarks, so `go test -bench` and canecbench -json
// measure one copy of each workload.
func BenchmarkSuite(b *testing.B) {
	for _, c := range suite.Cases() {
		if _, isTable := experiments.Find(c.Name); isTable {
			continue
		}
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			c.Fn(b.N)
		})
	}
}
