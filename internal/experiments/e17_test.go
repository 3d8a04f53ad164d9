package experiments

import "testing"

// TestE17PredictionsBoundMeasurement is the tentpole validation gate:
// over seeded chaos campaigns, the admission-grade miss prediction must
// upper-bound the measured late mass, the model-faithful P99 must agree
// with the measured P99 within the histogram's growth factor, and the
// chaos invariants must hold.
func TestE17PredictionsBoundMeasurement(t *testing.T) {
	res := resultAt(t, "E17", 1)
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	sawBitError, sawOmission := 0, 0
	var prevMeas float64
	for i, row := range res.Table.Rows {
		if row[11] != "true" {
			t.Fatalf("row %d failed its checks: %v", i, row)
		}
		if n := cell(t, row, 2); n < 3000 {
			t.Fatalf("row %d has too few samples (%v) for tail validation: %v", i, n, row)
		}
		if row[10] != "0" {
			t.Fatalf("row %d has chaos invariant violations: %v", i, row)
		}
		predMiss, measMiss := cell(t, row, 3), cell(t, row, 4)
		if predMiss < measMiss {
			t.Fatalf("row %d prediction does not bound measurement: %v", i, row)
		}
		predP99, measP99 := cell(t, row, 5), cell(t, row, 6)
		growth := cell(t, row, 7)
		if ratio := predP99 / measP99; ratio < 1/growth || ratio > growth {
			t.Fatalf("row %d P99 outside rank-error band (ratio %v, growth %v): %v",
				i, ratio, growth, row)
		}
		switch row[0] {
		case "bit_error":
			sawBitError++
			if measMiss < prevMeas {
				t.Fatalf("row %d: measured miss should grow with the error rate: %v", i, row)
			}
			prevMeas = measMiss
		case "omission":
			sawOmission++
			predLoss, measLoss := cell(t, row, 8), cell(t, row, 9)
			if predLoss <= 0 || measLoss <= 0 {
				t.Fatalf("omission row lost nothing: %v", row)
			}
		}
	}
	if sawBitError < 3 || sawOmission < 1 {
		t.Fatalf("campaign mix wrong: %d bit_error, %d omission", sawBitError, sawOmission)
	}
}
