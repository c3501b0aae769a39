package main

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/screamset"
	"github.com/netml/alefb/internal/serve"
)

func goodPredict() *serve.PredictResponse {
	return &serve.PredictResponse{
		Version: 1,
		Labels:  []int{2, 0},
		Proba:   [][]float64{{0.25, 0.125, 0.5, 0.125}, {0.75, 0.125, 0.0625, 0.0625}},
	}
}

func TestCheckPredictRejectsCorruptAnswers(t *testing.T) {
	if err := checkPredict(goodPredict(), 2, 4); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*serve.PredictResponse){
		"perturbed probability": func(r *serve.PredictResponse) { r.Proba[1][2] += 1e-6 },
		"probability above one": func(r *serve.PredictResponse) { r.Proba[0] = []float64{1.5, -0.5, 0, 0} },
		"NaN probability":       func(r *serve.PredictResponse) { r.Proba[0][1] = math.NaN() },
		"label not the argmax":  func(r *serve.PredictResponse) { r.Labels[0] = 0 },
		"dropped row":           func(r *serve.PredictResponse) { r.Proba, r.Labels = r.Proba[:1], r.Labels[:1] },
		"missing class":         func(r *serve.PredictResponse) { r.Proba[1] = r.Proba[1][:3] },
	} {
		r := goodPredict()
		corrupt(r)
		if err := checkPredict(r, 2, 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckBitIdenticalRejectsOneULP(t *testing.T) {
	want := [][]float64{{0.3, 0.7}}
	if err := checkBitIdentical([][]float64{{0.3, 0.7}}, want); err != nil {
		t.Fatalf("identical rows rejected: %v", err)
	}
	if err := checkBitIdentical([][]float64{{0.3, math.Nextafter(0.7, 1)}}, want); err == nil {
		t.Fatal("a one-ulp difference was accepted")
	}
	if err := checkBitIdentical(nil, want); err == nil {
		t.Fatal("a missing row was accepted")
	}
}

func TestBalancedAccuracy(t *testing.T) {
	got := balancedAccuracy([]int{0, 0, 1, 1, 1, 1}, []int{0, 1, 1, 1, 1, 0}, 3)
	if want := (0.5 + 0.75) / 2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("balanced accuracy %v, want %v", got, want)
	}
	if err := checkAbove(0.5, 0.5); err == nil {
		t.Fatal("a score equal to the floor was accepted")
	}
	if err := checkAbove(math.NaN(), 0.25); err == nil {
		t.Fatal("a NaN score was accepted")
	}
}

func TestCheckAckCoverage(t *testing.T) {
	acks := []ack{{seq: 16, rows: 8}, {seq: 8, rows: 8}, {seq: 24, rows: 8}}
	if n, err := checkAckCoverage(acks); err != nil || n != 24 {
		t.Fatalf("coverage = %d, %v; want 24, nil", n, err)
	}
	if _, err := checkAckCoverage([]ack{{seq: 8, rows: 8}, {seq: 24, rows: 8}}); err == nil {
		t.Fatal("a gap in the sequence was accepted")
	}
	if _, err := checkAckCoverage([]ack{{seq: 8, rows: 8}, {seq: 8, rows: 8}}); err == nil {
		t.Fatal("a row acknowledged twice was accepted")
	}
}

func TestCheckWALRejectsDroppedOrAlteredRows(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	labels := []int{0, 1, 0}
	if err := checkWAL(rows, labels, rows, labels); err != nil {
		t.Fatalf("identical store rejected: %v", err)
	}
	if err := checkWAL(rows[:2], labels[:2], rows, labels); err == nil {
		t.Fatal("a dropped acknowledged row was accepted")
	}
	if err := checkWAL(rows, []int{0, 1, 1}, rows, labels); err == nil {
		t.Fatal("an altered label was accepted")
	}
	altered := [][]float64{{1, 2}, {3, math.Nextafter(4, 5)}, {5, 6}}
	if err := checkWAL(altered, labels, rows, labels); err == nil {
		t.Fatal("an altered row was accepted")
	}
}

func TestDriftConservation(t *testing.T) {
	acks := []ack{{seq: 8, rows: 8}, {seq: 16, rows: 8}, {seq: 24, rows: 8}, {seq: 32, rows: 8}}
	if n := gateCrossings(acks, 1); n != 4 {
		t.Fatalf("every=1: %d crossings, want 4", n)
	}
	if n := gateCrossings(acks, 16); n != 2 {
		t.Fatalf("every=16: %d crossings, want 2", n)
	}
	if err := checkDriftConservation(3, 1, 4); err != nil {
		t.Fatalf("conserved counters rejected: %v", err)
	}
	if err := checkDriftConservation(3, 0, 4); err == nil {
		t.Fatal("a lost evaluation was accepted")
	}
}

func TestCheckRetrainStep(t *testing.T) {
	ok := &serve.RetrainResponse{Version: 5, TrainRows: 3100}
	if err := checkRetrainStep(4, 3000, 100, ok); err != nil {
		t.Fatalf("valid step rejected: %v", err)
	}
	if err := checkRetrainStep(3, 3000, 100, ok); err == nil {
		t.Fatal("a skipped version was accepted")
	}
	if err := checkRetrainStep(4, 3000, 99, ok); err == nil {
		t.Fatal("a wrong train_rows was accepted")
	}
}

func TestCheckRegions(t *testing.T) {
	schema := firewall.Schema()
	good := func() *serve.RegionsResponse {
		return &serve.RegionsResponse{Features: []serve.RegionFeature{
			{Feature: 1, Name: "dst_port", PeakStd: 0.2, Threshold: 0.1, Flagged: true,
				Intervals: []serve.RegionInterval{{Lo: 0, Hi: 500}}},
			{Feature: 4, Name: "bytes", PeakStd: 0.05, Threshold: 0.1},
		}}
	}
	if err := checkRegions(good(), schema); err != nil {
		t.Fatalf("valid regions rejected: %v", err)
	}
	r := good()
	r.Features[0].Intervals[0].Hi = 70000
	if err := checkRegions(r, schema); err == nil {
		t.Fatal("an interval past the feature range was accepted")
	}
	r = good()
	r.Features[0].PeakStd = 0.05
	if err := checkRegions(r, schema); err == nil {
		t.Fatal("a flagged feature below its threshold was accepted")
	}
}

func TestCheckOracleRecord(t *testing.T) {
	d := data.New(screamset.Schema())
	d.Append([]float64{10, 20, 0.01, 2}, 0)
	d.Append([]float64{50, 30, 0.02, 3}, 1)
	calls := []labelled{{x: []float64{50, 30, 0.02, 3}, y: 1}}
	if err := checkOracleRecord(calls, d, 1); err != nil {
		t.Fatalf("matching record rejected: %v", err)
	}
	if err := checkOracleRecord([]labelled{{x: []float64{50, 30, 0.02, 3}, y: 0}}, d, 1); err == nil {
		t.Fatal("a relabelled point was accepted")
	}
	if err := checkOracleRecord(nil, d, 1); err == nil {
		t.Fatal("a row the oracle never labelled was accepted")
	}
}

func TestCheckInBoxes(t *testing.T) {
	schema := screamset.Schema()
	boxes := []core.Box{
		{Feature: screamset.FeatLinkRate, Interval: core.Interval{Lo: 1, Hi: 45}},
		{Feature: screamset.FeatFlows, Interval: core.Interval{Lo: 3.2, Hi: 5.7}},
	}
	inside := [][]float64{{30, 50, 0.01, 1}, {90, 50, 0.01, 6}, {90, 50, 0.01, 3}}
	if err := checkInBoxes(inside, boxes, schema); err != nil {
		t.Fatalf("points inside (or rounded onto) a box rejected: %v", err)
	}
	if err := checkInBoxes([][]float64{{90, 50, 0.01, 7}}, boxes, schema); err == nil {
		t.Fatal("a point outside every box was accepted")
	}
	if err := checkInBoxes([][]float64{{45.6, 50, 0.01, 1}}, boxes, schema); err == nil {
		t.Fatal("a continuous feature half a unit outside was accepted")
	}
}
