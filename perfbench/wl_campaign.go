package main

import (
	"context"
	"fmt"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/screamset"
)

// Campaign make-up.
const (
	cmTrainRows      = 100 // production-distribution training rows
	cmTestRows       = 100 // uniform held-out rows
	cmRounds         = 2
	campaignPerRound = 40 // points suggested and labelled per round
	cmCandidates     = 8
)

// campaignSearch is the AutoML search of every campaign round: the full
// model zoo, since on a few hundred rows every family is cheap and the
// emulator's labelling dominates the campaign. Its seed is the same for
// every campaign, so campaigns differ only by the points they sample and
// the labels' measurement noise, and a run's median does not depend on
// how many campaigns it fits.
func campaignSearch() automl.Config {
	cfg := searchConfig(cmCandidates)
	cfg.Families = nil
	return cfg
}

// oracle labels points with the packet-level emulator, timing each call
// and keeping a copy of every (point, label) pair.
type oracle struct {
	b     *bench
	g     *screamset.Generator
	calls []labelled
	ms    []float64
}

func (o *oracle) Label(x []float64) int {
	span := o.b.tr.begin("screamset.label", 0, 0)
	start := time.Now()
	y := o.g.Label(x)
	o.ms = append(o.ms, float64(time.Since(start))/1e6)
	o.b.tr.end(span)
	o.calls = append(o.calls, labelled{x: append([]float64(nil), x...), y: y})
	return y
}

// campaignInputs is the labelled training set (production distribution)
// and held-out test set (uniform) of one set-up.
type campaignInputs struct {
	train, test *data.Dataset
}

// labelSet draws n conditions with draw and labels each through o.
func labelSet(o *oracle, n int, draw func(*rng.Rand) []float64, r *rng.Rand) *data.Dataset {
	d := data.New(screamset.Schema())
	for i := 0; i < n; i++ {
		x := draw(r)
		d.Append(x, o.Label(x))
	}
	return d
}

// runCampaign is the paper's Scream-vs-rest loop as a library call:
// core.RunLoopCtx with the emulator as its oracle, then the final
// ensemble scored on held-out emulator-labelled points. Campaigns repeat,
// each with its own sampling seed and oracle stream, until the timed
// phase is over.
func runCampaign(b *bench) error {
	in, err := repeatSetup(b, func(int) (campaignInputs, error) {
		// A fresh generator per set-up: its measurement-noise stream
		// restarts, so every set-up labels the same points alike.
		return campaignInputs{
			train: labelSet(&oracle{b: b, g: screamset.NewGenerator(0)}, cmTrainRows, screamset.SampleProduction, rng.Derive(0, streamTrain)),
			test:  labelSet(&oracle{b: b, g: screamset.NewGenerator(b.seed)}, cmTestRows, screamset.SampleCondition, rng.Derive(b.seed, streamHeldOut)),
		}, nil
	}, func(campaignInputs) {})
	if err != nil {
		return err
	}
	oracles := screamset.NewGenerator(b.seed ^ 0x5eed)
	errs := &firstErr{}
	var campaigns, labels, accuracies []float64
	var last *core.LoopResult
	start := time.Now()
	deadline := start.Add(b.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		o := &oracle{b: b, g: oracles.Fork(uint64(k))}
		span := b.tr.begin("client.campaign", 0, int64(k+1))
		t0 := time.Now()
		res, err := core.RunLoopCtx(context.Background(), in.train, core.LoopConfig{
			Rounds:   cmRounds,
			PerRound: campaignPerRound,
			AutoML:   campaignSearch(),
			Feedback: feedbackConfig(),
			Oracle:   o,
			Seed:     b.seed*1000 + uint64(k),
		})
		if err == nil {
			accuracies = append(accuracies, balancedAccuracy(in.test.Y, argmaxRows(inProcess(res.Final, in.test.X)), 2))
		}
		ms := float64(time.Since(t0)) / 1e6
		b.tr.end(span)
		failed := err != nil || res.Degraded
		b.ops.add("campaign", failed)
		if failed {
			if err == nil {
				err = fmt.Errorf("campaign degraded: %s", res.DegradedReason)
			}
			errs.set("no_failed_campaign", err)
			continue
		}
		campaigns = append(campaigns, ms)
		labels = append(labels, o.ms...)
		last = res
		errs.set("oracle_record", checkOracleRecord(o.calls, res.Train, in.train.Len()))
		errs.set("points_in_boxes", checkRoundPoints(res, in.train.Len()))
	}
	elapsed := time.Since(start)

	b.e2e["op_per_s"] = float64(len(campaigns)) / elapsed.Seconds()
	b.e2e["op_p50_ms"] = median(campaigns)
	b.e2e["op2_p50_ms"] = median(labels)
	b.note("campaigns", len(campaigns))
	b.note("labels", len(labels))
	b.note("elapsed_s", elapsed.Seconds())
	for _, name := range []string{"no_failed_campaign", "oracle_record", "points_in_boxes"} {
		b.verify(name, errs.get(name))
	}
	// The run's median campaign beats chance on the held-out points. A
	// single campaign may not: its final search sees 180 rows, a quarter of
	// them the minority class, and now and then keeps a committee that
	// labels every held-out point alike (balanced accuracy exactly 0.5).
	b.note("held_out_balanced_accuracy", accuracies)
	b.verify("held_out_above_half", checkAbove(median(accuracies), 0.5))
	if b.tr != nil {
		if last == nil {
			return fmt.Errorf("no campaign completed")
		}
		if err := b.replayCampaign(last); err != nil {
			return err
		}
		return b.ladder(last.Final, last.Train, nil, b.conditionRows)
	}
	return nil
}

// checkRoundPoints checks that each round's labelled points lie inside
// one of that round's Feedback.Subspaces() boxes.
func checkRoundPoints(res *core.LoopResult, initial int) error {
	at := initial
	for _, rd := range res.Rounds {
		pts := res.Train.X[at : at+rd.Added]
		if err := checkInBoxes(pts, rd.Feedback.Subspaces(), res.Train.Schema); err != nil {
			return fmt.Errorf("round %d: %w", rd.Round, err)
		}
		at += rd.Added
	}
	return nil
}

// argmaxRows is the argmax label of each probability row.
func argmaxRows(proba [][]float64) []int {
	out := make([]int, len(proba))
	for i, p := range proba {
		out[i] = argmax(p)
	}
	return out
}

// replayCampaign replays the library calls inside the last campaign's
// RunLoopCtx, as the loop made them: each round's search and feedback
// computation on the training set the round saw, sampling from each
// round's feedback, and the final search on everything collected.
func (b *bench) replayCampaign(res *core.LoopResult) error {
	r := rng.Derive(b.seed, streamLadder)
	var runs, evaluated, hits, computes, samples []float64
	search := func(train *data.Dataset, seed uint64) error {
		cfg := campaignSearch()
		cfg.Seed = seed
		var ens *automl.Ensemble
		ms, err := b.timed("automl.run", 0, func() error {
			var err error
			ens, err = automl.RunCtx(context.Background(), train, cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay campaign search: %w", err)
		}
		runs = append(runs, ms/1000)
		evaluated = append(evaluated, float64(ens.Evaluated))
		hits = append(hits, float64(ens.CacheHits))
		return nil
	}
	for _, rd := range res.Rounds {
		idx := make([]int, rd.TrainSize)
		for i := range idx {
			idx[i] = i
		}
		train := res.Train.Subset(idx)
		if err := search(train, campaignSearch().Seed+uint64(rd.Round)*131); err != nil {
			return err
		}
		ms, err := b.timed("core.compute", 0, func() error {
			_, err := core.ComputeCtx(context.Background(), core.WithinCommittee(rd.Ensemble), train, feedbackConfig())
			return err
		})
		if err != nil {
			return fmt.Errorf("replay campaign feedback: %w", err)
		}
		computes = append(computes, ms)
		for i := 0; i < ladderRepeats; i++ {
			ms, _ := b.timed("core.sample", 0, func() error { rd.Feedback.Sample(campaignPerRound, r); return nil })
			samples = append(samples, ms)
		}
	}
	if err := search(res.Train, campaignSearch().Seed+997); err != nil {
		return err
	}
	b.layer["automl.run_s"] = median(runs)
	b.layer["automl.evaluated"] = median(evaluated)
	b.layer["automl.cache_hits"] = median(hits)
	b.layer["core.compute_ms"] = median(computes)
	b.layer["core.sample_ms"] = median(samples)
	return nil
}

// conditionRows is the campaign's feedback stream for the ladder: uniform
// emulator conditions with seeded labels (the store and the drift window
// only need valid rows; labelling them with the emulator would time the
// emulator again).
func (b *bench) conditionRows(n int) *data.Dataset {
	r := rng.Derive(b.seed, streamFeedback)
	d := data.New(screamset.Schema())
	for i := 0; i < n; i++ {
		d.Append(screamset.SampleCondition(r), r.Intn(d.Schema.NumClasses()))
	}
	return d
}
