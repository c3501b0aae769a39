package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"

	"github.com/netml/alefb/internal/feedback"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/serve"
)

// Ingest make-up.
const (
	// driftThreshold is the drift monitor's trigger level: the committee's
	// ALE disagreement over a window of class probabilities never reaches
	// it, so the monitor evaluates every gate and never retrains.
	driftThreshold = 1.5
	// driftWindow is the drift monitor's window (the server default).
	driftWindow = 64
	// feedbackCycle is how many distinct feedback batches the writer
	// cycles through.
	feedbackCycle = 2048
)

// writer is the closed-loop client that posts labelled feedback batches.
type writer struct {
	b      *bench
	ls     *liveServer
	c      *conn
	bodies [][]byte
	lat    *latencies
	errs   *firstErr
	acks   []ack
}

func (w *writer) step(i int) {
	batch := i % len(w.bodies)
	span := w.b.tr.begin("client.feedback", 0, w.b.reqs.Add(1))
	raw, rt, err := w.c.do(http.MethodPost, w.ls.base+"/v1/feedback", w.bodies[batch])
	w.b.tr.end(span)
	w.b.ops.add("feedback", err != nil)
	if err != nil {
		w.errs.set("no_failed_feedback", err)
		return
	}
	w.lat.add("feedback", rt)
	var resp serve.FeedbackResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		w.errs.set("ack_durable", err)
		return
	}
	if !resp.Durable {
		w.errs.set("ack_durable", fmt.Errorf("ack %d not durable", resp.Seq))
	}
	if resp.Version != 1 {
		w.errs.set("version_constant", fmt.Errorf("feedback answered version %d", resp.Version))
	}
	w.acks = append(w.acks, ack{seq: resp.Seq, rows: feedbackBatch, batch: batch})
}

// runIngest is the writes-beside-reads workload: one client posts a
// stationary stream of labelled rows to /v1/feedback (fsynced WAL, drift
// monitor on) while the other sends the predict workload's predicts.
func runIngest(b *bench) error {
	s, err := repeatSetup(b, func(i int) (*served, error) {
		cfg := serve.Config{
			FeedbackDir:    filepath.Join(b.work, fmt.Sprintf("wal-%d", i)),
			DriftThreshold: driftThreshold,
			DriftWindow:    driftWindow,
		}
		return b.bootstrapServed(cfg, searchConfig(bootCandidates), true)
	}, func(s *served) { s.ls.stop() })
	if err != nil {
		return err
	}
	defer s.ls.stop()
	schema := firewall.Schema()
	walDir := filepath.Join(b.work, fmt.Sprintf("wal-%d", setupRepeats-1), serve.DefaultModel)

	stream := b.firewallRows(feedbackCycle * feedbackBatch)
	bodies := make([][]byte, feedbackCycle)
	for k := range bodies {
		lo := k * feedbackBatch
		body, err := json.Marshal(serve.FeedbackRequest{Rows: stream.X[lo : lo+feedbackBatch], Labels: stream.Y[lo : lo+feedbackBatch]})
		if err != nil {
			return err
		}
		bodies[k] = body
	}
	lat, errs := &latencies{}, &firstErr{}
	readers, err := b.newReaders(1, s.ls, schema, 0, lat, errs)
	if err != nil {
		return err
	}
	defer readers[0].c.close()
	w := &writer{b: b, ls: s.ls, c: newConn(), bodies: bodies, lat: lat, errs: errs}
	defer w.c.close()
	elapsed := closedLoop(b.seconds, w.step, readers[0].step)

	acks, predicts := lat.get("feedback"), lat.get("predict")
	b.e2e["op_per_s"] = float64(len(w.acks)*feedbackBatch) / elapsed.Seconds()
	b.e2e["op_p50_ms"] = median(acks)
	b.e2e["op2_p50_ms"] = median(predicts)
	b.note("ack_p99_ms", quantile(acks, 0.99))
	b.note("predict_p99_ms", quantile(predicts, 0.99))
	b.note("predict_rps", float64(len(predicts))/elapsed.Seconds())
	b.note("elapsed_s", elapsed.Seconds())

	for _, name := range []string{"no_failed_feedback", "no_failed_predict", "ack_durable", "predict_rows", "version_constant"} {
		b.verify(name, errs.get(name))
	}
	b.verify("predict_bit_identical", checkSamples(s.ens, readers))
	total, err := checkAckCoverage(w.acks)
	b.verify("ack_seq_cover_once", err)
	b.note("acked_rows", total)

	// Every gate crossing is evaluated or coalesced once the monitor has
	// caught up with the last acknowledged row.
	st, err := waitDrift(s.ls, readers[0].c, total)
	if err == nil {
		err = checkDriftConservation(st.DriftEvals, st.DriftEvalsCoalesced, gateCrossings(w.acks, int64(st.DriftEvalEvery)))
	}
	b.verify("drift_conservation", err)
	var unchanged error
	if st.Version != 1 || st.DriftRetrains != 0 {
		unchanged = fmt.Errorf("status at version %d after %d drift retrains", st.Version, st.DriftRetrains)
	}
	b.verify("version_unchanged", unchanged)
	b.note("drift_evals", st.DriftEvals)
	b.note("drift_coalesced", st.DriftEvalsCoalesced)

	held := firewallSet(b.seed, streamHeldOut, fwHeldOutRows)
	ba, _, err := heldOutAccuracy(s.ls, held)
	if err == nil {
		err = checkAbove(ba, 0.25)
	}
	b.note("held_out_balanced_accuracy", ba)
	b.verify("held_out_above_chance", err)
	if b.tr != nil {
		b.serveCounters(st)
	}

	// After shutdown the WAL replays exactly the acknowledged rows.
	if err := s.ls.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	b.verify("wal_replays_acks", checkReplay(walDir, w.acks, stream.X, stream.Y))

	if b.tr != nil {
		b.appends = len(w.acks)
		return b.ladder(s.ens, s.train, readers, b.firewallRows)
	}
	return nil
}

// checkReplay reopens the feedback store in dir and compares its rows
// with the client's copies of the acknowledged batches, by sequence
// number.
func checkReplay(dir string, acks []ack, rows [][]float64, labels []int) error {
	st, err := feedback.Open(feedback.Config{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	got, gotLabels := st.Rows()
	want := make([][]float64, 0, len(acks)*feedbackBatch)
	wantLabels := make([]int, 0, len(acks)*feedbackBatch)
	for _, a := range sortedAcks(acks) {
		lo := a.batch * feedbackBatch
		want = append(want, rows[lo:lo+a.rows]...)
		wantLabels = append(wantLabels, labels[lo:lo+a.rows]...)
	}
	return checkWAL(got, gotLabels, want, wantLabels)
}
