package experiments

import (
	"strconv"
	"strings"
	"testing"

	"canec/internal/golden"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments, want 19 (E1-E12 + E16-E19 + A1-A3)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil {
			t.Fatalf("%s has no runner", e.ID)
		}
		if seen[e.ID] || seen[e.Name] {
			t.Fatalf("duplicate key %s/%s", e.ID, e.Name)
		}
		seen[e.ID], seen[e.Name] = true, true
		byID, ok := Find(e.ID)
		if !ok || byID.Name != e.Name {
			t.Fatalf("Find(%s) failed", e.ID)
		}
		if _, ok := Find(e.Name); !ok {
			t.Fatalf("Find(%s) failed", e.Name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted unknown key")
	}
}

// cell parses a table cell that may carry a %-suffix or float formatting.
func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(row[i]), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[i], err)
	}
	return v
}

func TestE1GeometryInvariants(t *testing.T) {
	res := e1SlotGeometry(1)
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		txMin, txMax := cell(t, row, 1), cell(t, row, 2)
		wait := cell(t, row, 3)
		appJitter := cell(t, row, 5)
		if txMin < 0 || txMax > wait {
			t.Fatalf("tx start outside [0, ΔT_wait]: %v", row)
		}
		if appJitter != 0 {
			t.Fatalf("application jitter %v != 0: %v", appJitter, row)
		}
		if row[6] != "0" || row[7] != "0" {
			t.Fatalf("late/missed non-zero: %v", row)
		}
	}
}

func TestE2GuaranteeBoundary(t *testing.T) {
	res := e2FaultTolerance(1)
	for _, row := range res.Table.Rows {
		k, _ := strconv.Atoi(row[0])
		j, _ := strconv.Atoi(row[1])
		delivered := cell(t, row, 2)
		atDeadline := cell(t, row, 3)
		lateness := cell(t, row, 4)
		if delivered != 100 {
			t.Fatalf("k=%d j=%d delivered %v != 100 (CAN retransmits)", k, j, delivered)
		}
		if j <= k {
			// Inside the fault assumption: every delivery exactly at the
			// deadline, zero lateness.
			if atDeadline != 100 || lateness != 0 {
				t.Fatalf("k=%d j=%d violates guarantee: %v", k, j, row)
			}
		}
		if j >= k+2 {
			// Beyond assumption + stuffing slack: must be late and detected.
			if lateness <= 0 {
				t.Fatalf("k=%d j=%d fault overrun undetected: %v", k, j, row)
			}
			if row[5] == "0" {
				t.Fatalf("k=%d j=%d no SlotMissed raised: %v", k, j, row)
			}
		}
	}
}

func TestE3ReclamationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := e3Reclamation(1)
	var ttcanFirst float64
	for i, row := range res.Table.Rows {
		canecTP := cell(t, row, 2)
		ttcanTP := cell(t, row, 4)
		if canecTP <= ttcanTP {
			t.Fatalf("row %d: no reclamation advantage: %v", i, row)
		}
		if i == 0 {
			ttcanFirst = ttcanTP
		} else if diff := ttcanTP - ttcanFirst; diff > 1 || diff < -1 {
			t.Fatalf("TTCAN throughput should be duty-independent: %v vs %v", ttcanTP, ttcanFirst)
		}
	}
}

func TestE8PrecisionBoundHolds(t *testing.T) {
	res := e8ClockSync(1)
	sawHealthy, sawBroken := false, false
	for _, row := range res.Table.Rows {
		bound := cell(t, row, 1)
		measured := cell(t, row, 2)
		if measured > bound {
			t.Fatalf("measured precision above analytical bound: %v", row)
		}
		late := cell(t, row, 4)
		if row[3] == "true" && late != 0 {
			t.Fatalf("healthy precision but late deliveries: %v", row)
		}
		if row[3] == "true" {
			sawHealthy = true
		} else if late > 0 {
			sawBroken = true
		}
	}
	if !sawHealthy || !sawBroken {
		t.Fatalf("sweep must show both regimes (healthy=%v broken=%v)", sawHealthy, sawBroken)
	}
}

func TestE10AnalysisBoundsSimulation(t *testing.T) {
	res := e10WCRTAnalysis(1)
	for _, row := range res.Table.Rows {
		bound := cell(t, row, 4)
		sim := cell(t, row, 5)
		if bound < sim {
			t.Fatalf("WCRT bound below simulation: %v", row)
		}
		if row[7] != "true" {
			t.Fatalf("SAE-style set should be schedulable: %v", row)
		}
	}
}

func TestE6NonInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := e6Fragmentation(1)
	for _, row := range res.Table.Rows {
		if jit := cell(t, row, 4); jit != 0 {
			t.Fatalf("bulk transfer added HRT jitter: %v", row)
		}
		if row[5] != "0" {
			t.Fatalf("bulk transfer caused late HRT deliveries: %v", row)
		}
	}
}

func TestResultString(t *testing.T) {
	res := e10WCRTAnalysis(1)
	s := res.String()
	if !strings.Contains(s, "E10") || !strings.Contains(s, "bound") {
		t.Fatalf("rendering broken: %q", s[:80])
	}
}

func TestActualFrameTimeBetweenBounds(t *testing.T) {
	for p := 0; p <= 8; p++ {
		got := actualFrameTime(p)
		min := float64(minBitsFor(p))
		max := float64(worstBitsFor(p))
		if float64(got)/1000 < min || float64(got)/1000 > max {
			t.Fatalf("payload %d: actual %v outside [%v, %v] µs", p, got, min, max)
		}
	}
}

// TestAllExperimentsProduceTables runs the complete registry (each table
// at its default parameters) and checks structural health: non-empty
// tables with consistent row widths. The rendered tables are pinned in
// testdata/golden/experiments (regenerate with -update). Slow (~20 s);
// skipped with -short.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(2)
			if res.ID != e.ID {
				t.Fatalf("result ID %q", res.ID)
			}
			if len(res.Table.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range res.Table.Rows {
				if len(row) != len(res.Table.Headers) {
					t.Fatalf("row %d has %d cells for %d headers", i, len(row), len(res.Table.Headers))
				}
			}
			if len(res.Notes) == 0 {
				t.Fatal("experiment without reading notes")
			}
			golden.Check(t, "../../testdata/golden/experiments/"+e.ID+".txt", res.String())
		})
	}
}
