package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/serve"
)

// bootCandidates is the AutoML budget of the predict and ingest
// bootstraps.
const bootCandidates = 12

// interpShare is the share of the predict workload's requests that are
// cached interpretation reads (/v1/ale, /v1/regions).
const interpShare = 0.10

// sampleEvery spaces the predict answers compared bit for bit with an
// in-process sweep: one in sampleEvery, from a seeded offset.
const sampleEvery = 16

// served is the state every HTTP workload sets up: the server, the
// ensemble it publishes and the inputs generated from the seed.
type served struct {
	ls    *liveServer
	ens   *automl.Ensemble
	train *data.Dataset
}

// bootstrapServed generates the bootstrap training set, trains an AutoML
// ensemble on it with search, starts a server with cfg, publishes the
// ensemble and, when warm is set, fills the interpretation cache. The
// server's later searches (retrains) use cfg.AutoML, or search when that
// is unset. The bootstrap training set is the same for every workload
// seed: it stands for the deployed model, the system's state, while the
// seed varies the traffic sent to it. A seeded training set would make
// the committee, and every cost measured on it, change from seed to seed
// (README.md, "Inputs").
func (b *bench) bootstrapServed(cfg serve.Config, search automl.Config, warm bool) (*served, error) {
	train := firewallSet(0, streamTrain, fwTrainRows)
	if cfg.AutoML.MaxCandidates == 0 {
		cfg.AutoML = search
	}
	cfg.Feedback = feedbackConfig()
	ens, err := b.trainSpan(train, search)
	if err != nil {
		return nil, fmt.Errorf("bootstrap search: %w", err)
	}
	ls, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	if v := ls.srv.Install(ens, train); v != 1 {
		ls.stop()
		return nil, fmt.Errorf("install published version %d, want 1", v)
	}
	if warm {
		if err := warmInterp(ls, train.Schema); err != nil {
			ls.stop()
			return nil, err
		}
	}
	return &served{ls: ls, ens: ens, train: train}, nil
}

// reader is one closed-loop client of read requests.
type reader struct {
	b       *bench
	ls      *liveServer
	c       *conn
	ops     []predictOp
	schema  *data.Schema
	lat     *latencies
	errs    *firstErr
	offset  int
	samples []predictSample
}

// predictSample is a predict answer kept for the bit-identity check.
type predictSample struct {
	rows  [][]float64
	proba [][]float64
}

func (r *reader) step(i int) {
	op := r.ops[i%len(r.ops)]
	span := r.b.tr.begin("client."+op.kind, 0, r.b.reqs.Add(1))
	raw, rt, err := r.c.do(http.MethodPost, r.ls.base+op.path, op.body)
	r.b.tr.end(span)
	r.b.ops.add(op.kind, err != nil)
	if err != nil {
		r.errs.set("no_failed_"+op.kind, err)
		return
	}
	r.lat.add(op.kind, rt)
	switch op.kind {
	case "predict":
		var resp serve.PredictResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			r.errs.set("predict_rows", err)
			return
		}
		r.errs.set("predict_rows", checkPredict(&resp, len(op.rows), r.schema.NumClasses()))
		if resp.Version != 1 {
			r.errs.set("version_constant", fmt.Errorf("predict answered version %d", resp.Version))
		}
		if i%sampleEvery == r.offset {
			r.samples = append(r.samples, predictSample{rows: op.rows, proba: resp.Proba})
		}
	case "ale":
		var resp serve.ALEResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			r.errs.set("ale_curve", err)
			return
		}
		r.errs.set("ale_curve", checkALE(&resp))
	case "regions":
		var resp serve.RegionsResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			r.errs.set("regions_bounds", err)
			return
		}
		r.errs.set("regions_bounds", checkRegions(&resp, r.schema))
	}
}

// checkALE checks an ALE answer's shape: one mean and one finite,
// non-negative disagreement value per grid point.
func checkALE(resp *serve.ALEResponse) error {
	if len(resp.Grid) == 0 || len(resp.Mean) != len(resp.Grid) || len(resp.Std) != len(resp.Grid) {
		return fmt.Errorf("feature %d: grid %d, mean %d, std %d points", resp.Feature, len(resp.Grid), len(resp.Mean), len(resp.Std))
	}
	for i, s := range resp.Std {
		if math.IsNaN(s) || s < 0 || math.IsNaN(resp.Mean[i]) {
			return fmt.Errorf("feature %d point %d: mean %v std %v", resp.Feature, i, resp.Mean[i], s)
		}
	}
	return nil
}

// newReaders builds one reader per client over the query rows, each with
// its own seeded request cycle.
func (b *bench) newReaders(n int, ls *liveServer, schema *data.Schema, interp float64, lat *latencies, errs *firstErr) ([]*reader, error) {
	query := firewallSet(b.seed, streamQuery, fwQueryRows).X
	out := make([]*reader, n)
	for k := range out {
		r := rng.Derive(b.seed, uint64(streamMix*100+k))
		ops, err := readMix(r, query, schema, interp)
		if err != nil {
			return nil, err
		}
		out[k] = &reader{b: b, ls: ls, c: newConn(), ops: ops, schema: schema, lat: lat, errs: errs,
			offset: r.Intn(sampleEvery)}
	}
	return out, nil
}

// checkSamples compares the sampled predict answers with an in-process
// sweep of the same rows.
func checkSamples(ens *automl.Ensemble, readers []*reader) error {
	n := 0
	for _, r := range readers {
		for _, s := range r.samples {
			if err := checkBitIdentical(s.proba, inProcess(ens, s.rows)); err != nil {
				return err
			}
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("no predict answer was sampled")
	}
	return nil
}

// runPredict is the serving-reads workload: closed-loop predicts of 1 to
// 64 rows with a minority of cached ALE/regions reads.
func runPredict(b *bench) error {
	s, err := repeatSetup(b, func(int) (*served, error) {
		return b.bootstrapServed(serve.Config{}, searchConfig(bootCandidates), true)
	}, func(s *served) { s.ls.stop() })
	if err != nil {
		return err
	}
	defer s.ls.stop()
	schema := firewall.Schema()
	lat, errs := &latencies{}, &firstErr{}
	readers, err := b.newReaders(clients, s.ls, schema, interpShare, lat, errs)
	if err != nil {
		return err
	}
	loops := make([]func(int), len(readers))
	for k, r := range readers {
		loops[k] = r.step
		defer r.c.close()
	}
	elapsed := closedLoop(b.seconds, loops...)

	predicts := lat.get("predict")
	b.e2e["op_per_s"] = float64(len(predicts)) / elapsed.Seconds()
	b.e2e["op_p50_ms"] = median(predicts)
	b.e2e["op2_p50_ms"] = median(lat.get("ale", "regions"))
	b.note("predict_p99_ms", quantile(predicts, 0.99))
	b.note("interp_p99_ms", quantile(lat.get("ale", "regions"), 0.99))
	b.note("elapsed_s", elapsed.Seconds())

	for _, name := range []string{"no_failed_predict", "no_failed_ale", "no_failed_regions", "predict_rows", "version_constant", "ale_curve", "regions_bounds"} {
		b.verify(name, errs.get(name))
	}
	b.verify("predict_bit_identical", checkSamples(s.ens, readers))
	held := firewallSet(b.seed, streamHeldOut, fwHeldOutRows)
	ba, _, err := heldOutAccuracy(s.ls, held)
	if err == nil {
		err = checkAbove(ba, 0.25)
	}
	b.note("held_out_balanced_accuracy", ba)
	b.verify("held_out_above_chance", err)

	if b.tr != nil {
		st, err := s.ls.status(readers[0].c)
		if err != nil {
			return err
		}
		b.serveCounters(st)
		return b.ladder(s.ens, s.train, readers, b.firewallRows)
	}
	return nil
}
