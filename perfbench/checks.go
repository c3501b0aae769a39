package main

// Output checks. Each is a pure function of what the program returned and
// what the benchmark itself generated or recorded, written without the
// program's own helpers so that a fault in those cannot hide a wrong
// answer. checks_test.go feeds each a corrupted result.

import (
	"fmt"
	"math"
	"sort"

	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/serve"
)

// argmax is the index of the largest value, the first one on ties.
func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// checkPredict checks one predict answer for rows request rows: one
// probability row per request row, each of width classes, finite, in
// [0, 1], summing to 1, and the returned label its argmax.
func checkPredict(resp *serve.PredictResponse, rows, classes int) error {
	if len(resp.Proba) != rows || len(resp.Labels) != rows {
		return fmt.Errorf("%d rows sent, %d probability rows and %d labels returned", rows, len(resp.Proba), len(resp.Labels))
	}
	for i, p := range resp.Proba {
		if len(p) != classes {
			return fmt.Errorf("row %d: %d probabilities for %d classes", i, len(p), classes)
		}
		sum := 0.0
		for c, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				return fmt.Errorf("row %d class %d: probability %v outside [0, 1]", i, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("row %d: probabilities sum to %v", i, sum)
		}
		if want := argmax(p); resp.Labels[i] != want {
			return fmt.Errorf("row %d: label %d, argmax %d", i, resp.Labels[i], want)
		}
	}
	return nil
}

// checkBitIdentical compares two probability matrices bit for bit.
func checkBitIdentical(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
				return fmt.Errorf("row %d class %d: %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

// balancedAccuracy is the mean per-class recall over the classes present
// in truth.
func balancedAccuracy(truth, pred []int, classes int) float64 {
	hit := make([]float64, classes)
	n := make([]float64, classes)
	for i, y := range truth {
		n[y]++
		if pred[i] == y {
			hit[y]++
		}
	}
	sum, present := 0.0, 0
	for c := range n {
		if n[c] > 0 {
			sum += hit[c] / n[c]
			present++
		}
	}
	if present == 0 {
		return math.NaN()
	}
	return sum / float64(present)
}

// checkAbove checks that a score exceeds a floor.
func checkAbove(score, floor float64) error {
	if !(score > floor) {
		return fmt.Errorf("balanced accuracy %.4f is not above %.4f", score, floor)
	}
	return nil
}

// ack is one acknowledged feedback batch: the store sequence after it and
// the index of the batch in the client's stream.
type ack struct {
	seq   int64
	rows  int
	batch int
}

// checkAckCoverage checks that the acknowledged batches cover sequence
// numbers 1..N exactly once, and returns N.
func checkAckCoverage(acks []ack) (int64, error) {
	var next int64 = 1
	for _, a := range sortedAcks(acks) {
		if first := a.seq - int64(a.rows) + 1; first != next {
			return 0, fmt.Errorf("ack seq %d covers rows from %d, want %d", a.seq, first, next)
		}
		next = a.seq + 1
	}
	return next - 1, nil
}

// sortedAcks returns the acks ordered by sequence number.
func sortedAcks(acks []ack) []ack {
	s := append([]ack(nil), acks...)
	sort.Slice(s, func(i, j int) bool { return s[i].seq < s[j].seq })
	return s
}

// checkWAL compares the rows and labels a reopened feedback store
// returned with the client's copies of what was acknowledged: acked[i] is
// the i-th acknowledged row by sequence number.
func checkWAL(rows [][]float64, labels []int, ackedRows [][]float64, ackedLabels []int) error {
	if len(rows) != len(ackedRows) || len(labels) != len(ackedLabels) {
		return fmt.Errorf("store holds %d rows and %d labels, %d were acknowledged", len(rows), len(labels), len(ackedRows))
	}
	for i := range ackedRows {
		if labels[i] != ackedLabels[i] {
			return fmt.Errorf("seq %d: label %d, acknowledged %d", i+1, labels[i], ackedLabels[i])
		}
		if len(rows[i]) != len(ackedRows[i]) {
			return fmt.Errorf("seq %d: %d features, acknowledged %d", i+1, len(rows[i]), len(ackedRows[i]))
		}
		for j, v := range ackedRows[i] {
			if math.Float64bits(rows[i][j]) != math.Float64bits(v) {
				return fmt.Errorf("seq %d column %d: %v, acknowledged %v", i+1, j, rows[i][j], v)
			}
		}
	}
	return nil
}

// gateCrossings counts the acknowledged batches (in sequence order) that
// crossed a multiple of every: the drift evaluations the server owes.
func gateCrossings(acks []ack, every int64) int64 {
	var n int64
	for _, a := range acks {
		if a.seq/every > (a.seq-int64(a.rows))/every {
			n++
		}
	}
	return n
}

// checkDriftConservation checks that every gate crossing was either
// evaluated or folded into a newer evaluation.
func checkDriftConservation(evals, coalesced, crossings int64) error {
	if evals+coalesced != crossings {
		return fmt.Errorf("drift_evals %d + drift_coalesced %d != %d gate crossings", evals, coalesced, crossings)
	}
	return nil
}

// checkRetrainStep checks one retrain answer against the round that sent
// it: the version is the one the round started from plus one, and the
// training set grew by exactly the rows sent.
func checkRetrainStep(fromVersion int64, fromRows, sent int, resp *serve.RetrainResponse) error {
	if resp.Version != fromVersion+1 {
		return fmt.Errorf("retrain answered version %d, want %d", resp.Version, fromVersion+1)
	}
	if resp.TrainRows != fromRows+sent {
		return fmt.Errorf("train_rows %d after sending %d rows to %d, want %d", resp.TrainRows, sent, fromRows, fromRows+sent)
	}
	return nil
}

// checkRegions checks a regions answer: every flagged interval lies inside
// its feature's schema range, and every flagged feature's peak
// disagreement is at least its threshold.
func checkRegions(resp *serve.RegionsResponse, schema *data.Schema) error {
	if len(resp.Features) == 0 {
		return fmt.Errorf("no feature analysed")
	}
	for _, f := range resp.Features {
		if f.Feature < 0 || f.Feature >= schema.NumFeatures() {
			return fmt.Errorf("feature index %d outside the schema", f.Feature)
		}
		feat := schema.Features[f.Feature]
		if f.Flagged != (len(f.Intervals) > 0) {
			return fmt.Errorf("%s: flagged=%v with %d intervals", f.Name, f.Flagged, len(f.Intervals))
		}
		if f.Flagged && f.PeakStd < f.Threshold {
			return fmt.Errorf("%s: flagged with peak_std %v below threshold %v", f.Name, f.PeakStd, f.Threshold)
		}
		for _, iv := range f.Intervals {
			if iv.Lo > iv.Hi || iv.Lo < feat.Min || iv.Hi > feat.Max {
				return fmt.Errorf("%s: interval [%v, %v] outside [%v, %v]", f.Name, iv.Lo, iv.Hi, feat.Min, feat.Max)
			}
		}
	}
	return nil
}

// labelled is one oracle call: the point asked about and the answer.
type labelled struct {
	x []float64
	y int
}

// checkOracleRecord checks that the rows a campaign appended to its
// training set beyond the first initial ones are exactly the points the
// oracle labelled, in order, with the oracle's labels.
func checkOracleRecord(calls []labelled, train *data.Dataset, initial int) error {
	if got := train.Len() - initial; got != len(calls) {
		return fmt.Errorf("training set grew by %d rows, oracle labelled %d points", got, len(calls))
	}
	for i, c := range calls {
		x, y := train.X[initial+i], train.Y[initial+i]
		if y != c.y {
			return fmt.Errorf("row %d: label %d, oracle said %d", initial+i, y, c.y)
		}
		if len(x) != len(c.x) {
			return fmt.Errorf("row %d: %d features, oracle saw %d", initial+i, len(x), len(c.x))
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(c.x[j]) {
				return fmt.Errorf("row %d column %d: %v, oracle saw %v", initial+i, j, x[j], c.x[j])
			}
		}
	}
	return nil
}

// checkInBoxes checks that every point lies inside at least one box. A
// box bounds one feature to an interval; on integer features a point may
// sit half a unit outside, where sampling rounded it.
func checkInBoxes(points [][]float64, boxes []core.Box, schema *data.Schema) error {
	for i, x := range points {
		inside := false
		for _, bx := range boxes {
			slack := 1e-9
			if schema.Features[bx.Feature].Integer {
				slack = 0.5
			}
			v := x[bx.Feature]
			if v >= bx.Interval.Lo-slack && v <= bx.Interval.Hi+slack {
				inside = true
				break
			}
		}
		if !inside {
			return fmt.Errorf("point %d %v lies in none of %d boxes", i, x, len(boxes))
		}
	}
	return nil
}
