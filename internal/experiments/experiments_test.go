package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"canec/internal/golden"
)

// memoRun is one (experiment, seed) run, made once per test binary.
type memoRun struct {
	once sync.Once
	res  Result
}

// runs maps {ID, seed} to its *memoRun.
var runs sync.Map

// resultAt returns the registry experiment id's result at seed. Each
// (experiment, seed) runs once per test binary: the golden and shape
// tests share runs. Callers must not modify the result.
func resultAt(t testing.TB, id string, seed uint64) Result {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	v, _ := runs.LoadOrStore(struct {
		id   string
		seed uint64
	}{id, seed}, new(memoRun))
	m := v.(*memoRun)
	m.once.Do(func() { m.res = e.Run(seed) })
	return m.res
}

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
	res := resultAt(t, "E1", 1)
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
	res := resultAt(t, "E2", 1)
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
	res := resultAt(t, "E3", 1)
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
	res := resultAt(t, "E8", 1)
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
	res := resultAt(t, "E10", 1)
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
	res := resultAt(t, "E6", 1)
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
	res := resultAt(t, "E10", 1)
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

// goldenSeeds are the seeds every experiment's table is pinned at, next
// to the aggregate of seeds 1-3. Most tables move with the seed, so one
// seed would leave the others unchecked; seed 5 is the first at which
// E11 differs from seeds 1-3.
var goldenSeeds = []uint64{1, 2, 3, 5}

// TestAllExperimentsProduceTables runs the complete registry (each table
// at its default parameters) at every golden seed and checks structural
// health: non-empty tables with consistent row widths and reading notes.
// The rendered tables are pinned in testdata/golden/experiments: seed 2
// at <ID>.txt, the other seeds in seed<N>/ and the aggregate of seeds 1-3
// (canecbench -seeds 3) in seeds1-3/; regenerate with -update. Each
// experiment is a parallel subtest (about 6 s in all on two CPUs);
// skipped with -short.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, seed := range goldenSeeds {
				dir := fmt.Sprintf("seed%d/", seed)
				if seed == 2 {
					dir = ""
				}
				checkTable(t, dir, e.ID, resultAt(t, e.ID, seed))
			}
			agg := Aggregate([]Result{resultAt(t, e.ID, 1), resultAt(t, e.ID, 2), resultAt(t, e.ID, 3)})
			checkTable(t, "seeds1-3/", e.ID, agg)
		})
	}
}

// checkTable checks the structure of experiment id's result and pins
// its rendering in testdata/golden/experiments/<dir><id>.txt.
func checkTable(t *testing.T, dir, id string, res Result) {
	t.Helper()
	name := dir + id
	if res.ID != id {
		t.Fatalf("%s: result ID %q", name, res.ID)
	}
	if len(res.Table.Rows) == 0 {
		t.Fatalf("%s: empty table", name)
	}
	for i, row := range res.Table.Rows {
		if len(row) != len(res.Table.Headers) {
			t.Fatalf("%s: row %d has %d cells for %d headers", name, i, len(row), len(res.Table.Headers))
		}
	}
	if len(res.Notes) == 0 {
		t.Fatalf("%s: experiment without reading notes", name)
	}
	golden.Check(t, "../../testdata/golden/experiments/"+name+".txt", res.String())
}
