package main

// The layer ladder of a traced run: after the workload's traced phase the
// benchmark replays each layer's public entry point on the workload's own
// inputs, one layer at a time, under a span per call, and reads the
// counters the program exposes. Every traced run reports every per-layer
// metric; README.md says on which workload each one is meant to be read.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/feedback"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/screamset"
	"github.com/netml/alefb/internal/serve"
	"github.com/netml/alefb/internal/wire"
)

// Ladder sizes.
const (
	ladderRequests = 200 // predict requests replayed over loopback and through the handler
	ladderBatches  = 512 // feedback batches appended to a fresh store
	ladderIngest   = 64  // feedback batches posted to the ladder server
	ladderSaves    = 3   // snapshot saves
	ladderLabelN   = 8   // emulator labels where the workload made none
	ladderRepeats  = 5   // repetitions of the cheap core calls
	feedbackBatch  = 8   // rows per feedback batch
)

// serveCounters records the serve.* counters of a status answer. The
// workload's own server reports first; counters it did not exercise (no
// batches, no interpretation lookups, no drift evaluations) stay unset
// until the ladder server's status fills them.
func (b *bench) serveCounters(st serve.ModelStatus) {
	if st.Batches > 0 {
		b.setLayer("serve.reqs_per_batch", float64(st.BatchedReqs)/float64(st.Batches))
	}
	if n := st.InterpCacheHits + st.InterpCacheMisses; n > 0 {
		b.setLayer("serve.interp_hit_ratio", float64(st.InterpCacheHits)/float64(n))
	}
	if st.DriftEvals > 0 {
		b.setLayer("serve.drift_evals", float64(st.DriftEvals))
		b.setLayer("serve.drift_coalesced", float64(st.DriftEvalsCoalesced))
		b.setLayer("serve.drift_eval_ms", float64(st.DriftEvalMSTotal)/float64(st.DriftEvals))
	}
}

// setLayer records a per-layer value unless the workload already did.
func (b *bench) setLayer(name string, v float64) {
	if _, ok := b.layer[name]; !ok {
		b.layer[name] = v
	}
}

// timed runs fn under a span and returns its duration in milliseconds.
func (b *bench) timed(name string, parent int64, fn func() error) (float64, error) {
	id := b.tr.begin(name, parent, 0)
	start := time.Now()
	err := fn()
	ms := float64(time.Since(start)) / 1e6
	b.tr.end(id)
	return ms, err
}

// ladder replays every layer on ens, its training set, the workload's
// predict requests (readers; nil builds them from the training rows) and
// its feedback stream (rows).
func (b *bench) ladder(ens *automl.Ensemble, train *data.Dataset, readers []*reader, rows rowSource) error {
	root := b.tr.begin("ladder", 0, 0)
	defer b.tr.end(root)
	var ops []predictOp
	if len(readers) > 0 {
		for _, op := range readers[0].ops {
			if op.kind == "predict" && len(ops) < ladderRequests {
				ops = append(ops, op)
			}
		}
	} else {
		var err error
		if ops, err = readMix(rng.Derive(b.seed, streamLadder), train.X, train.Schema, 0); err != nil {
			return err
		}
		ops = ops[:ladderRequests]
	}
	stream := rows(ladderIngest * feedbackBatch)
	for _, step := range []func() error{
		func() error { return b.ladderServe(root, ens, train, ops, stream) },
		func() error { return b.ladderSearch(root, ens, train) },
		func() error { return b.ladderInterpret(root, ens, train, stream) },
		func() error { return b.ladderFeedback(root, train.Schema, rows) },
		func() error { return b.ladderSnapshots(root, ens, train) },
		func() error { return b.ladderLabels(root) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// ladderServe measures the serve layer on a server of the ladder's own,
// with a WAL and a drift monitor so that the serve counters a workload
// did not exercise are measured too: the predict requests over loopback
// and then through the handler with a response recorder, the batch sweep
// on the same rows, a cold and a cached regions answer, and drift
// evaluations of posted feedback.
func (b *bench) ladderServe(root int64, ens *automl.Ensemble, train *data.Dataset, ops []predictOp, stream *data.Dataset) error {
	ls, err := startServer(serve.Config{
		Feedback:       feedbackConfig(),
		FeedbackDir:    filepath.Join(b.work, "ladder-wal"),
		DriftThreshold: driftThreshold,
	})
	if err != nil {
		return err
	}
	defer ls.stop()
	ls.srv.Install(ens, train)
	c := newConn()
	defer c.close()

	var rts, handler, sweeps []float64
	for _, op := range ops {
		_, rt, err := c.do(http.MethodPost, ls.base+op.path, op.body)
		if err != nil {
			return fmt.Errorf("ladder predict: %w", err)
		}
		end := time.Now()
		b.tr.record("serve.roundtrip", root, 0, end.Add(-rt), end)
		rts = append(rts, float64(rt)/1e6)
	}
	h := ls.srv.Handler()
	for _, op := range ops {
		ms, err := b.timed("serve.handler", root, func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d", rec.Code)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ladder handler: %w", err)
		}
		handler = append(handler, ms)
	}
	for _, op := range ops {
		out := make([][]float64, len(op.rows))
		for i := range out {
			out[i] = make([]float64, ens.NumClasses)
		}
		ms, _ := b.timed("automl.predict_batch", root, func() error {
			ens.PredictProbaBatchInto(op.rows, out)
			return nil
		})
		sweeps = append(sweeps, ms*1000)
	}
	b.layer["serve.handler_ms"] = median(handler)
	b.layer["serve.transport_ms"] = median(rts) - median(handler)
	b.layer["automl.predict_batch_us"] = median(sweeps)

	for i := 0; i < 2; i++ {
		if _, err := c.call(http.MethodPost, ls.base+"/v1/regions", struct{}{}, nil); err != nil {
			return fmt.Errorf("ladder regions: %w", err)
		}
	}
	for i := 0; i < ladderIngest; i++ {
		lo := i * feedbackBatch
		req := serve.FeedbackRequest{Rows: stream.X[lo : lo+feedbackBatch], Labels: stream.Y[lo : lo+feedbackBatch]}
		if _, err := c.call(http.MethodPost, ls.base+"/v1/feedback", req, nil); err != nil {
			return fmt.Errorf("ladder feedback: %w", err)
		}
	}
	st, err := waitDrift(ls, c, int64(ladderIngest*feedbackBatch))
	if err != nil {
		return err
	}
	b.serveCounters(st)
	return nil
}

// ladderSearch measures the automl and ml layers: the workload's
// set-up searches (or one on the training set, where it ran none) unless
// the workload replayed its own, and a refit of a decoded copy of the
// published committee.
func (b *bench) ladderSearch(root int64, ens *automl.Ensemble, train *data.Dataset) error {
	if _, ok := b.layer["automl.run_s"]; !ok {
		if b.lastSearch == nil {
			if _, err := b.trainSpan(train, searchConfig(8)); err != nil {
				return fmt.Errorf("ladder search: %w", err)
			}
		}
		b.layer["automl.run_s"] = median(b.tr.durations("automl.run")) / 1000
		b.layer["automl.evaluated"] = float64(b.lastSearch.Evaluated)
		b.layer["automl.cache_hits"] = float64(b.lastSearch.CacheHits)
	}

	blob, err := automl.AppendEnsemble(nil, ens)
	if err != nil {
		return err
	}
	cp, err := automl.DecodeEnsemble(wire.NewReader(blob))
	if err != nil {
		return err
	}
	refit, err := b.timed("ml.refit", root, func() error { return cp.Fit(train, rng.New(1)) })
	if err != nil {
		return fmt.Errorf("ladder refit: %w", err)
	}
	b.layer["ml.refit_s"] = refit / 1000
	return nil
}

// ladderInterpret measures the interpret and core layers: the committee
// curves of each feature (every class), the within-committee feedback,
// sampling from it, and the drift analysis of one window.
func (b *bench) ladderInterpret(root int64, ens *automl.Ensemble, train *data.Dataset, stream *data.Dataset) error {
	schema := train.Schema
	models := ens.Models()
	var perFeature []float64
	for j := 0; j < schema.NumFeatures(); j++ {
		ms, err := b.timed("interpret.committee", root, func() error {
			for k := 0; k < schema.NumClasses(); k++ {
				opt := interpret.Options{Bins: bins, Class: k}
				if _, err := interpret.CommitteeCtx(context.Background(), models, train, j, interpret.MethodALE, opt); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ladder committee: %w", err)
		}
		perFeature = append(perFeature, ms)
	}
	b.layer["interpret.committee_ms"] = median(perFeature)

	var fb *core.Feedback
	compute, err := b.timed("core.compute", root, func() error {
		var err error
		fb, err = core.ComputeCtx(context.Background(), core.WithinCommittee(ens), train, feedbackConfig())
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder compute: %w", err)
	}
	b.setLayer("core.compute_ms", compute)

	win := data.New(schema)
	for i := 0; i < driftWindow; i++ {
		win.Append(stream.X[i], stream.Y[i])
	}
	r := rng.Derive(b.seed, streamLadder)
	var samples, windows []float64
	for i := 0; i < ladderRepeats; i++ {
		ms, _ := b.timed("core.sample", root, func() error {
			fb.Sample(campaignPerRound, r)
			return nil
		})
		samples = append(samples, ms)
		ms, err := b.timed("core.window", root, func() error {
			_, err := core.WindowDisagreementData(context.Background(), models, win, driftThreshold, feedbackConfig())
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder window: %w", err)
		}
		windows = append(windows, ms)
	}
	b.setLayer("core.sample_ms", median(samples))
	b.layer["core.window_ms"] = median(windows)
	return nil
}

// ladderLabels measures the emulator: every label the workload asked for,
// or ladderLabelN uniform conditions where it asked for none.
func (b *bench) ladderLabels(root int64) error {
	if len(b.tr.durations("screamset.label")) == 0 {
		g := screamset.NewGenerator(b.seed)
		r := rng.Derive(b.seed, streamLadder+1)
		for i := 0; i < ladderLabelN; i++ {
			x := screamset.SampleCondition(r)
			b.timed("screamset.label", root, func() error { g.Label(x); return nil })
		}
	}
	labels := b.tr.durations("screamset.label")
	b.layer["screamset.label_ms"] = median(labels)
	b.layer["screamset.labels"] = float64(len(labels))
	return nil
}

// rowSource draws the first n rows of a workload's stationary stream of
// labelled feedback rows; the same n gives the same rows.
type rowSource func(n int) *data.Dataset

// firewallRows is the feedback stream of the HTTP workloads: labelled
// firewall rows.
func (b *bench) firewallRows(n int) *data.Dataset {
	return firewallSet(b.seed, streamFeedback, n)
}

// ladderFeedback appends feedback batches to a fresh on-disk store and
// times each append, separately for the appends that compacted. The
// batches are the ingest writer's stream, in its order: as many as the
// workload acknowledged (b.appends), ladderBatches when it sent none.
func (b *bench) ladderFeedback(root int64, schema *data.Schema, source rowSource) error {
	st, err := feedback.Open(feedback.Config{Dir: filepath.Join(b.work, "ladder-store")})
	if err != nil {
		return err
	}
	defer st.Close()
	n := b.appends
	if n == 0 {
		n = ladderBatches
	}
	rows := source(feedbackCycle * feedbackBatch)
	var all, compacting []float64
	for i := 0; i < n; i++ {
		lo := (i % feedbackCycle) * feedbackBatch
		before := st.Compactions()
		ms, err := b.timed("feedback.append", root, func() error {
			_, err := st.Append(rows.X[lo:lo+feedbackBatch], rows.Y[lo:lo+feedbackBatch], schema.NumClasses())
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder append: %w", err)
		}
		all = append(all, ms)
		if st.Compactions() > before {
			compacting = append(compacting, ms)
		}
	}
	b.layer["feedback.append_p50_ms"] = median(all)
	b.layer["feedback.append_p99_ms"] = quantile(all, 0.99)
	b.layer["feedback.compactions"] = float64(st.Compactions())
	b.layer["feedback.compact_append_ms"] = median(compacting)
	return nil
}

// ladderSnapshots saves the published snapshot to a fresh store a few
// times and records the save time and the file size.
func (b *bench) ladderSnapshots(root int64, ens *automl.Ensemble, train *data.Dataset) error {
	dir := filepath.Join(b.work, "ladder-snap")
	store := modelstore.New(modelstore.Config{Dir: dir})
	var saves []float64
	for v := int64(1); v <= ladderSaves; v++ {
		ms, err := b.timed("modelstore.save", root, func() error {
			return store.Save("default", &modelstore.Snapshot{Version: v, Parent: v - 1, Seed: 11, Ensemble: ens, Train: train})
		})
		if err != nil {
			return fmt.Errorf("ladder save: %w", err)
		}
		saves = append(saves, ms)
	}
	b.setLayer("modelstore.save_ms", median(saves))
	if _, ok := b.layer["modelstore.snapshot_kb"]; !ok {
		kb, err := snapshotKB(filepath.Join(dir, "default"))
		if err != nil {
			return err
		}
		b.layer["modelstore.snapshot_kb"] = kb
	}
	return nil
}

// snapshotKB is the median size of the snapshot files in dir, in KiB.
func snapshotKB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "v*.snap"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no snapshot file in %s", dir)
	}
	var sizes []float64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		sizes = append(sizes, float64(fi.Size())/1024)
	}
	return median(sizes), nil
}

// waitDrift polls the status endpoint until the drift monitor has
// evaluated the store up to sequence seq, and returns the status then.
func waitDrift(ls *liveServer, c *conn, seq int64) (serve.ModelStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := ls.status(c)
		if err != nil {
			return st, err
		}
		if st.DriftEvalSeq >= seq {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("drift monitor at seq %d, want %d: %w", st.DriftEvalSeq, seq, errDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
