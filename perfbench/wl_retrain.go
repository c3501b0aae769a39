package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/serve"
)

// Retrain make-up.
const (
	rtPoolRows  = 6000 // labelled pool the rounds draw from
	rtRoundRows = 100  // pool rows sent per round, at most
	rtRounds    = 3    // rounds per episode
	rtCommittee = 5    // pipelines per retrain search, every one kept as a member
	// rtBootCandidates is the bootstrap's full search budget (the
	// server's default).
	rtBootCandidates = 24
)

// retrainSearch is the AutoML search of the retrain workload's retrains:
// rtCommittee random pipelines, no evolutionary phase, and every pipeline
// kept in the committee. Which pipelines a search draws then depends on
// its seed alone (see roundSeed), not on the rows the workload seed
// chose: with selection on, the committee of each round, and the cost of
// its regions, swung by half from seed to seed (README.md, "Inputs").
func retrainSearch() automl.Config {
	cfg := searchConfig(rtCommittee)
	cfg.Generations = -1
	cfg.EnsembleSize = rtCommittee
	cfg.MinDistinctMembers = rtCommittee
	return cfg
}

// round is one operator round as the client saw it.
type round struct {
	fromRows  int // training rows of the snapshot the round started from
	rows      [][]float64
	labels    []int
	version   int64 // version the retrain published
	regionsMS float64
	retrainMS float64
}

// inRegions reports whether x lies inside a flagged interval of any
// feature of a regions answer.
func inRegions(x []float64, resp *serve.RegionsResponse) bool {
	for _, f := range resp.Features {
		for _, iv := range f.Intervals {
			if v := x[f.Feature]; v >= iv.Lo && v <= iv.Hi {
				return true
			}
		}
	}
	return false
}

// runRetrain is the operator's loop over HTTP (§4.2 pool protocol): each
// round asks for the regions of the freshly published snapshot, takes the
// labelled pool rows inside them, posts them to /v1/retrain and checks the
// version it publishes. Rounds come in episodes of rtRounds that start
// from the bootstrap model, so every run times the same round shapes.
func runRetrain(b *bench) error {
	s, err := repeatSetup(b, func(i int) (*served, error) {
		cfg := serve.Config{
			SnapshotDir: filepath.Join(b.work, fmt.Sprintf("snap-%d", i)),
			AutoML:      retrainSearch(),
		}
		return b.bootstrapServed(cfg, searchConfig(rtBootCandidates), false)
	}, func(s *served) { s.ls.stop() })
	if err != nil {
		return err
	}
	defer s.ls.stop()
	snapDir := filepath.Join(b.work, fmt.Sprintf("snap-%d", setupRepeats-1))
	schema := firewall.Schema()
	pool := firewallSet(b.seed, streamPool, rtPoolRows)
	c := newConn()
	defer c.close()

	var rounds []round
	errs := &firstErr{}
	version, trainRows := int64(1), s.train.Len()
	start := time.Now()
	deadline := start.Add(b.seconds)
	for episode := 0; episode == 0 || time.Now().Before(deadline); episode++ {
		if episode > 0 {
			version, trainRows = s.ls.srv.Install(s.ens, s.train), s.train.Len()
		}
		cursor := 0
		for k := 0; k < rtRounds; k++ {
			rd, next, err := b.operatorRound(s.ls, c, k, pool, cursor, version, trainRows, schema, errs)
			if err != nil {
				errs.set("no_failed_round", err)
				break
			}
			rounds = append(rounds, rd)
			cursor = next
			version, trainRows = rd.version, rd.fromRows+len(rd.rows)
		}
	}
	elapsed := time.Since(start)

	var retrains, regions []float64
	for _, rd := range rounds {
		retrains = append(retrains, rd.retrainMS)
		regions = append(regions, rd.regionsMS)
	}
	b.e2e["op_per_s"] = float64(len(rounds)) / elapsed.Seconds()
	b.e2e["op_p50_ms"] = median(retrains)
	b.e2e["op2_p50_ms"] = median(regions)
	b.note("rounds", len(rounds))
	b.note("elapsed_s", elapsed.Seconds())
	for _, name := range []string{"no_failed_round", "regions_bounds", "retrain_step", "published_persisted"} {
		b.verify(name, errs.get(name))
	}

	// The newest durable snapshot decodes and predicts exactly what the
	// server answers.
	held := firewallSet(b.seed, streamHeldOut, fwHeldOutRows)
	ba, served, err := heldOutAccuracy(s.ls, held)
	if err == nil {
		err = checkAbove(ba, 0.25)
	}
	b.note("held_out_balanced_accuracy", ba)
	b.verify("held_out_above_chance", err)
	store := modelstore.New(modelstore.Config{Dir: snapDir})
	rec, err := store.LoadLatest(serve.DefaultModel)
	if err == nil && rec.Version != version {
		err = fmt.Errorf("latest snapshot is v%d, server published v%d", rec.Version, version)
	}
	if err == nil {
		if served == nil {
			err = fmt.Errorf("the server answered no held-out rows to compare with")
		} else {
			err = checkBitIdentical(served, inProcess(rec.Ensemble, held.X))
		}
	}
	b.verify("snapshot_predicts_as_served", err)

	if b.tr != nil {
		if rec == nil {
			return fmt.Errorf("no snapshot to replay: %w", err)
		}
		st, err := s.ls.status(c)
		if err != nil {
			return err
		}
		b.serveCounters(st)
		kb, err := snapshotKB(filepath.Join(snapDir, serve.DefaultModel))
		if err != nil {
			return err
		}
		b.layer["modelstore.snapshot_kb"] = kb
		// Replay the first episode's searches: each round's training set
		// with the round's seed.
		train := s.train
		var runs, evaluated, hits []float64
		for k := 0; k < rtRounds && k < len(rounds); k++ {
			if train, err = withRows(train, rounds[k].rows, rounds[k].labels); err != nil {
				return err
			}
			cfg := retrainSearch()
			cfg.Seed = roundSeed(k)
			var ens *automl.Ensemble
			ms, err := b.timed("automl.run", 0, func() error {
				var err error
				ens, err = automl.RunCtx(context.Background(), train, cfg)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay search %d: %w", k+1, err)
			}
			runs = append(runs, ms/1000)
			evaluated = append(evaluated, float64(ens.Evaluated))
			hits = append(hits, float64(ens.CacheHits))
		}
		b.layer["automl.run_s"] = median(runs)
		b.layer["automl.evaluated"] = median(evaluated)
		b.layer["automl.cache_hits"] = median(hits)
		// Replay the feedback computation of the snapshots the last
		// episode's regions calls answered from: the three versions before
		// the newest, all still on disk (the store keeps four).
		var computes []float64
		for v := version - rtRounds; v < version; v++ {
			snap, err := store.LoadVersion(serve.DefaultModel, v)
			if err != nil {
				return fmt.Errorf("replay compute v%d: %w", v, err)
			}
			ms, err := b.timed("core.compute", 0, func() error {
				_, err := core.ComputeCtx(context.Background(), core.WithinCommittee(snap.Ensemble), snap.Train, feedbackConfig())
				return err
			})
			if err != nil {
				return fmt.Errorf("replay compute v%d: %w", v, err)
			}
			computes = append(computes, ms)
		}
		b.layer["core.compute_ms"] = median(computes)
		return b.ladder(rec.Ensemble, rec.Train, nil, b.firewallRows)
	}
	return nil
}

// roundSeed is the search seed of an episode's round k (from 0): the seed
// the server would derive for retrain attempt k+1. Sending it makes every
// episode repeat the same searches, so a run's median is over the same
// round shapes however many episodes fit in its timed phase.
func roundSeed(k int) uint64 { return retrainSearch().Seed + uint64(k+1)*131 }

// operatorRound runs round k of an episode against the snapshot at
// version, whose training set has trainRows rows, taking pool rows from
// cursor on. It returns the round and the pool cursor after the rows it
// took.
func (b *bench) operatorRound(ls *liveServer, c *conn, k int, pool *data.Dataset, cursor int, version int64, trainRows int, schema *data.Schema, errs *firstErr) (round, int, error) {
	rd := round{fromRows: trainRows}
	var regions serve.RegionsResponse
	span := b.tr.begin("client.regions", 0, 0)
	rt, err := c.call(http.MethodPost, ls.base+"/v1/regions", struct{}{}, &regions)
	b.tr.end(span)
	b.ops.add("regions", err != nil)
	if err != nil {
		return rd, cursor, fmt.Errorf("regions: %w", err)
	}
	rd.regionsMS = float64(rt) / 1e6
	errs.set("regions_bounds", checkRegions(&regions, schema))
	if regions.Version != version {
		errs.set("regions_bounds", fmt.Errorf("regions answered from v%d, v%d is published", regions.Version, version))
	}
	for ; cursor < pool.Len() && len(rd.rows) < rtRoundRows; cursor++ {
		if inRegions(pool.X[cursor], &regions) {
			rd.rows = append(rd.rows, pool.X[cursor])
			rd.labels = append(rd.labels, pool.Y[cursor])
		}
	}

	var resp serve.RetrainResponse
	seed := roundSeed(k)
	span = b.tr.begin("client.retrain", 0, 0)
	rt, err = c.call(http.MethodPost, ls.base+"/v1/retrain", serve.RetrainRequest{Rows: rd.rows, Labels: rd.labels, Seed: &seed}, &resp)
	b.tr.end(span)
	b.ops.add("retrain", err != nil)
	if err != nil {
		return rd, cursor, fmt.Errorf("retrain: %w", err)
	}
	rd.retrainMS = float64(rt) / 1e6
	rd.version = resp.Version
	errs.set("retrain_step", checkRetrainStep(version, trainRows, len(rd.rows), &resp))

	st, err := ls.status(c)
	if err != nil {
		return rd, cursor, fmt.Errorf("status: %w", err)
	}
	if st.Version != resp.Version || st.SnapshotVersion != resp.Version {
		errs.set("published_persisted", fmt.Errorf("retrain answered v%d; serving v%d, persisted v%d", resp.Version, st.Version, st.SnapshotVersion))
	}
	return rd, cursor, nil
}

// withRows returns a copy of d with rows appended.
func withRows(d *data.Dataset, rows [][]float64, labels []int) (*data.Dataset, error) {
	out := d.Clone()
	for i, x := range rows {
		if err := out.AppendRow(x, labels[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
