package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/serve"
)

// Input make-up of the HTTP workloads (README.md, "Inputs").
const (
	fwTrainRows   = 3000 // predict/ingest bootstrap training rows
	fwHeldOutRows = 2000 // generator-labelled rows for the accuracy checks
	fwQueryRows   = 4096 // rows predict requests draw from
	maxPredict    = 64   // rows per predict request: uniform in 1..maxPredict
	opsPerClient  = 4096 // pre-built requests per client, cycled
	setupRepeats  = 3    // set-ups per run; setup_s is their median
	clients       = 2    // closed-loop connections: the checking host's nproc
	bins          = 32   // ALE grid of /v1/ale and /v1/regions
)

// Input streams: each input set draws from its own rng.Derive(seed, ·)
// stream, so changing one set's size leaves the others unchanged.
const (
	streamTrain = iota + 1
	streamHeldOut
	streamQuery
	streamFeedback
	streamPool
	streamMix
	streamLadder
)

// searchConfig is the AutoML search of every bootstrap, retrain and
// campaign round. The search seed is fixed: the workload seed varies the
// data, not the search. The search space is pruned to one model family
// (the paper's domain-customization hook, automl.Config.Families) so the
// committee's make-up, and with it the cost of every layer, does not
// swing with the data: over the full zoo a 3000-row committee's regions
// took from 0.04 s to 18 s depending on the seed (README.md, "Inputs").
func searchConfig(candidates int) automl.Config {
	return automl.Config{MaxCandidates: candidates, Seed: 11, Families: []string{"xtrees"}}
}

// feedbackConfig is the interpretation configuration of the server.
func feedbackConfig() core.Config { return core.Config{Bins: bins} }

// firewallSet draws n generator-labelled firewall rows from stream s.
func firewallSet(seed uint64, s uint64, n int) *data.Dataset {
	return firewall.Generate(n, rng.Derive(seed, s))
}

// predictOp is one pre-built read request.
type predictOp struct {
	kind string // "predict", "ale" or "regions"
	path string
	body []byte
	rows [][]float64 // predict only
}

// readMix builds a client's cycle of read requests: predicts of 1 to
// maxPredict query rows, and with probability interp an interpretation
// read (2/3 ALE of a random feature and class, 1/3 regions).
func readMix(r *rng.Rand, query [][]float64, schema *data.Schema, interp float64) ([]predictOp, error) {
	ops := make([]predictOp, opsPerClient)
	for i := range ops {
		if r.Float64() < interp {
			if r.Float64() < 2.0/3 {
				req := serve.ALERequest{Feature: r.Intn(schema.NumFeatures()), Class: r.Intn(schema.NumClasses())}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				ops[i] = predictOp{kind: "ale", path: "/v1/ale", body: body}
			} else {
				ops[i] = predictOp{kind: "regions", path: "/v1/regions", body: []byte("{}")}
			}
			continue
		}
		n := 1 + r.Intn(maxPredict)
		start := r.Intn(len(query) - n + 1)
		rows := query[start : start+n]
		body, err := json.Marshal(serve.PredictRequest{Rows: rows})
		if err != nil {
			return nil, err
		}
		ops[i] = predictOp{kind: "predict", path: "/v1/predict", body: body, rows: rows}
	}
	return ops, nil
}

// warmInterp fills the snapshot's interpretation cache with every key a
// read mix can ask for: the regions answer (which computes the committee
// curves of every feature and class) and the ALE answer of each feature
// and class.
func warmInterp(ls *liveServer, schema *data.Schema) error {
	c := newConn()
	defer c.close()
	if _, err := c.call(http.MethodPost, ls.base+"/v1/regions", struct{}{}, nil); err != nil {
		return fmt.Errorf("warm regions: %w", err)
	}
	for f := 0; f < schema.NumFeatures(); f++ {
		for k := 0; k < schema.NumClasses(); k++ {
			if _, err := c.call(http.MethodPost, ls.base+"/v1/ale", serve.ALERequest{Feature: f, Class: k}, nil); err != nil {
				return fmt.Errorf("warm ale %d/%d: %w", f, k, err)
			}
		}
	}
	return nil
}

// repeatSetup runs setup setupRepeats times, keeps the last result and
// releases the others, and records the median set-up time as setup_s.
func repeatSetup[T any](b *bench, setup func(i int) (T, error), release func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, err := setup(i)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return last, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i < setupRepeats-1 {
			release(v)
		}
		last = v
	}
	b.e2e["setup_s"] = median(times)
	b.note("setup_s_each", times)
	return last, nil
}

// trainSpan runs automl.RunCtx under a span named automl.run.
func (b *bench) trainSpan(train *data.Dataset, cfg automl.Config) (*automl.Ensemble, error) {
	id := b.tr.begin("automl.run", 0, 0)
	ens, err := automl.RunCtx(context.Background(), train, cfg)
	b.tr.end(id)
	if err == nil {
		b.lastSearch = ens
	}
	return ens, err
}

// latencies collects round trips by kind from concurrent clients.
type latencies struct {
	mu   sync.Mutex
	byOp map[string][]float64
}

func (l *latencies) add(kind string, d time.Duration) {
	l.mu.Lock()
	if l.byOp == nil {
		l.byOp = map[string][]float64{}
	}
	l.byOp[kind] = append(l.byOp[kind], float64(d)/1e6)
	l.mu.Unlock()
}

func (l *latencies) get(kinds ...string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, k := range kinds {
		out = append(out, l.byOp[k]...)
	}
	return out
}

// closedLoop runs one client goroutine per entry of loops until the
// deadline passes; each calls its function with its next operation index
// only after the previous operation completed. It returns the wall time
// from the start until the last client finished.
func closedLoop(d time.Duration, loops ...func(i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func(loop func(int)) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				loop(i)
			}
		}(loop)
	}
	wg.Wait()
	return time.Since(start)
}

// firstErr keeps the first error of each output check raised from
// concurrent clients.
type firstErr struct {
	mu   sync.Mutex
	errs map[string]error
}

func (f *firstErr) set(name string, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.errs == nil {
		f.errs = map[string]error{}
	}
	if f.errs[name] == nil {
		f.errs[name] = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.errs[name]
}

// heldOutAccuracy predicts the held-out rows through the server in
// maxPredict-row requests and returns the served model's balanced
// accuracy and the probabilities it answered.
func heldOutAccuracy(ls *liveServer, held *data.Dataset) (float64, [][]float64, error) {
	c := newConn()
	defer c.close()
	var pred []int
	var proba [][]float64
	for lo := 0; lo < held.Len(); lo += maxPredict {
		hi := lo + maxPredict
		if hi > held.Len() {
			hi = held.Len()
		}
		var resp serve.PredictResponse
		if _, err := c.call(http.MethodPost, ls.base+"/v1/predict", serve.PredictRequest{Rows: held.X[lo:hi]}, &resp); err != nil {
			return math.NaN(), nil, err
		}
		if err := checkPredict(&resp, hi-lo, held.Schema.NumClasses()); err != nil {
			return math.NaN(), nil, err
		}
		pred = append(pred, resp.Labels...)
		proba = append(proba, resp.Proba...)
	}
	return balancedAccuracy(held.Y, pred, held.Schema.NumClasses()), proba, nil
}

// inProcess predicts rows with ens in this process.
func inProcess(ens *automl.Ensemble, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, ens.NumClasses)
	}
	ens.PredictProbaBatchInto(rows, out)
	return out
}
